"""Dataset containers, task streams, replay memory, and OOD test subsets.

Feature datasets are (n, d) matrices with integer labels, held as float32
when given float32 (a file's features, as ``load_dataset`` reads them, or
a suite ``synthgen.generate`` draws for a file) and as float64 otherwise
(the suite it draws for a run).  A
:class:`FeatureDataset` is rows checked where they enter the engine
(``load_dataset``, ``synthgen.generate``).  Inside a run, rows are plain
read-only arrays that nothing checks again: the task stream's arrays and
the views a step reads them through.

A step reads every row set through a :class:`RowView`: the stored array
and the row numbers of it the set holds, with no copy.  ``test_through``,
``step_rows`` and ``ood_subset`` each hand one out, and every view holds
row numbers, so its reader gathers the rows from storage.
Every array a run computes with is float64, made at one boundary, the
view: :meth:`RowView.read` widens one slice of rows at a time, so a set
that is scored, measured for ACC or fitted into a bank (which keeps its
view to rescore) is never held whole in float64, and neither is a
training step's: CIL training and fine-tuning read each batch through
the step's view.  :meth:`RowView.widen` widens a whole set, slice by
slice, for the distillation targets' one logits product, for the other
fitted scorers and for herding.  No
float32 row may pass it, since NumPy 2 keeps ``float32_array *
python_float`` in float32, which would change the bytes of everything
computed from it.

The binary on-disk format is little-endian:

    magic "OCF1" | u32 version=1 | u32 n | u32 d
    n*d float32 features (row-major) | n int32 labels

A suite manifest is a JSON document naming the ID train/test files and a
list of OOD datasets, each tagged ``near`` or ``far``.  Every data fault
is one :class:`DataError`; one in a manifest set names the set and file.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .configcheck import is_int, read_json
from .numerics import RngStream

__all__ = [
    "DataError",
    "FeatureDataset",
    "TaskStream",
    "RowView",
    "MemoryBuffer",
    "OodEntry",
    "OodSuite",
    "save_dataset",
    "load_dataset",
    "split_tasks",
    "step_rows",
    "rebalance_memory",
    "herding_select",
    "ood_order",
    "ood_subset",
    "load_suite_manifest",
]

_MAGIC = b"OCF1"
_VERSION = 1
_SAVE_ROWS = 4096
# RowView.slices' budget: a slice holds at most this many values
# (2 MiB in float64), so a desk-sized set is one slice and a scaled one a
# few; whole-set widening goes by the same slices
_SLICE_CELLS = 1 << 18


class DataError(Exception):
    """Rows or a suite that cannot be read or break a dataset invariant:
    the one data error, whose message says what is wrong and where."""


@dataclass(frozen=True)
class FeatureDataset:
    """Rows of feature vectors, checked when built: finite features, at
    least one row, one integer label per row in [0, n_classes).  Float32
    features are kept as given, a loaded file's as a read-only view of its
    bytes, so a manifest suite is held at the size it is stored; any other
    features become float64.  Rows reach arithmetic through the float64
    boundary named in the module docstring."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int = 0

    def __post_init__(self):
        feats = np.asarray(self.features)
        feats = np.ascontiguousarray(feats, np.float32 if feats.dtype == np.float32 else np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise DataError("features must be a nonempty (n, d) matrix")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels must have one entry per row")
        if labels.dtype.kind not in "iu":
            raise DataError(f"labels must be integers, not {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        if not np.all(np.isfinite(feats)):
            raise DataError("non-finite feature value")
        n_classes = self.n_classes if self.n_classes > 0 else int(labels.max()) + 1
        if labels.min() < 0 or labels.max() >= n_classes:
            raise DataError(f"labels must lie in [0, {n_classes})")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_classes", n_classes)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class RowView:
    """Rows of a stored feature array, read as float64 a slice at a time.

    ``storage`` is an (N, d) float32 or float64 array, kept as given, and
    ``index`` the row numbers of it the view holds, in view order.  The
    view holds no row of its own, and hands rows out only in float64:
    :meth:`read` gathers C-contiguous float64 rows into a new array, so no
    slice a scorer, a fit or a rescore reads is float32."""

    storage: np.ndarray
    index: np.ndarray

    @classmethod
    def of(cls, rows) -> "RowView":
        """``rows`` as a view: a view as it is, anything else as every row
        of the array ``np.asarray`` makes of it."""
        if isinstance(rows, cls):
            return rows
        rows = np.asarray(rows)
        return cls(rows, np.arange(rows.shape[0]))

    @property
    def shape(self) -> tuple[int, int]:
        return self.index.shape[0], self.storage.shape[1]

    def _stored(self, sel) -> np.ndarray:
        """The stored rows at view positions ``sel``, as stored."""
        return self.storage[self.index[sel]]

    def read(self, sel) -> np.ndarray:
        """The float64 rows at view positions ``sel``, a slice or an
        integer array."""
        return np.ascontiguousarray(self._stored(sel), dtype=np.float64)

    def slices(self):
        """Consecutive slices of the view's positions, each of
        ``_SLICE_CELLS // d`` rows (at least one), the last one ragged: a
        caller reads each as it uses it, so no two are held at once."""
        n, d = self.shape
        height = max(1, _SLICE_CELLS // d)
        return (slice(start, min(start + height, n)) for start in range(0, n, height))

    def widen(self) -> np.ndarray:
        """Every row in float64, read-only: a new array filled slice by
        slice."""
        out = np.empty(self.shape)
        for part in self.slices():
            out[part] = self._stored(part)  # widened as it is copied in
        return _read_only(out)


@dataclass(frozen=True)
class TaskStream:
    """Ordered partition of classes into tasks with disjoint label sets.

    Task t (1-based) adds the classes ``classes[t - 1]``.  ``head_row[c]``
    (read-only) is class c's position in that order, the head row that
    predicts it, and every label :meth:`test_through` and :func:`step_rows`
    hand out is one (identity order keeps the class ids).  ``train_x`` /
    ``train_y`` and ``test_x`` / ``test_y`` are the datasets' own features
    and labels, read-only, and ``train_order`` / ``test_order`` their row
    numbers task by task, each task's rows in dataset order: task t's
    training rows are ``train_order[train_bounds[t - 1]:train_bounds[t]]``,
    its test rows likewise.  Built by :func:`split_tasks` from checked
    datasets, so no row is checked again.
    """

    classes: tuple[tuple[int, ...], ...]
    head_row: np.ndarray
    train_x: np.ndarray
    train_y: np.ndarray
    train_order: np.ndarray
    train_bounds: tuple[int, ...]
    test_x: np.ndarray
    test_y: np.ndarray
    test_order: np.ndarray
    test_bounds: tuple[int, ...]

    @property
    def num_steps(self) -> int:
        return len(self.classes)

    def classes_through(self, t: int) -> tuple[int, ...]:
        """Seen-class set after step t (1-based), in task order."""
        return tuple(c for classes in self.classes[:t] for c in classes)

    def test_through(self, t: int) -> tuple[RowView, np.ndarray]:
        """The test rows of tasks 1..t (1-based), task by task: a view of
        ``test_x`` through a prefix of ``test_order``, and their head rows."""
        if not 1 <= t <= self.num_steps:
            raise ValueError("step index out of range")
        rows = self.test_order[: self.test_bounds[t]]
        return RowView(self.test_x, rows), self.head_row[self.test_y[rows]]


@dataclass
class MemoryBuffer:
    """Fixed-budget exemplar store; ``entries[c]`` lists the row numbers
    of ``TaskStream.train_x``, the training set's own features, that class
    c keeps, in pick order."""

    budget: int
    entries: dict[int, list[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class OodEntry:
    name: str
    dataset: FeatureDataset
    tag: str  # "near" | "far"

    def __post_init__(self):
        if self.tag not in ("near", "far"):
            raise DataError(f"OOD set {self.name!r}: unknown OOD tag {self.tag!r}")
        # the name is a field of report.csv, written without quoting
        if any(ch in self.name for ch in ',"\r\n'):
            raise DataError(f"OOD set name {self.name!r} holds a comma, quote, CR or LF")


@dataclass(frozen=True)
class OodSuite:
    entries: tuple[OodEntry, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise DataError("OOD dataset names must be unique")


def save_dataset(ds: FeatureDataset, path, dest=None) -> None:
    """Write the binary feature format (little-endian, float32 payload) to
    ``dest``, by default ``path``: a caller that writes under a temporary
    name passes the file it is making as ``path``, which errors name.
    A feature too large for float32 raises :class:`DataError`, since
    :func:`load_dataset` would reject the infinity it casts to."""
    path = Path(path)
    with open(path if dest is None else dest, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, ds.n, ds.dim))
        # float32 blocks of _SAVE_ROWS rows: float32 rows are written as they
        # are, others each cast into its own buffer, so the payload is never
        # held as a whole second copy, nor as bytes
        for start in range(0, ds.n, _SAVE_ROWS):
            with np.errstate(over="ignore"):
                block = ds.features[start : start + _SAVE_ROWS].astype("<f4", copy=False)
            if not np.isfinite(block).all():
                raise DataError(f"cannot write {path}: a feature value overflows float32")
            fh.write(memoryview(block))
        fh.write(memoryview(ds.labels.astype("<i4")))


def load_dataset(path, n_classes: int = 0) -> FeatureDataset:
    """Load a binary feature file, validating all invariants.

    ``n_classes`` caps the label range when the caller knows the class
    count.  A file that cannot be read (missing, a directory, unreadable)
    or breaks the format or a dataset invariant raises :class:`DataError`.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if len(raw) < 16:
        raise DataError("file too short for header")
    if raw[:4] != _MAGIC:
        raise DataError("bad magic, expected OCF1")
    version, n, d = struct.unpack("<III", raw[4:16])
    if version != _VERSION:
        raise DataError(f"unsupported version {version}")
    expect = 16 + 4 * n * d + 4 * n
    if len(raw) != expect:
        raise DataError(f"payload size mismatch ({len(raw)} != {expect})")
    feats = np.frombuffer(raw, dtype="<f4", count=n * d, offset=16)
    labels = np.frombuffer(raw, dtype="<i4", count=n, offset=16 + 4 * n * d)
    # the features stay a read-only float32 view of raw; the check reads the
    # labels into a new int64 array
    return FeatureDataset(feats.reshape(n, d), labels, n_classes)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that no step can write through."""
    view = a.view()
    view.flags.writeable = False
    return view


def split_tasks(
    ds_train: FeatureDataset,
    ds_test: FeatureDataset,
    k: int,
    class_order: RngStream | None = None,
) -> TaskStream:
    """Partition classes into ceil(K/k) tasks of k classes (last task takes
    the remainder).  Classes are taken in id order, or in the permutation
    drawn from ``class_order.child("class-order")`` when one is given, and
    ``head_row`` numbers them in that order.

    The stream holds the inputs' own arrays as read-only views and, for
    each input, its row numbers task by task: no feature row is copied, in
    any class order or row layout.
    """
    K = ds_train.n_classes
    if k < 2:
        raise ValueError("step size k must be >= 2")
    if k > K:
        raise ValueError(f"step size {k} exceeds class count {K}")
    if class_order is None:
        order = np.arange(K)
    else:
        order = class_order.child("class-order").gen.permutation(K)
    groups = tuple(tuple(int(c) for c in order[start : start + k]) for start in range(0, K, k))
    head_row = np.empty(K, dtype=np.int64)
    head_row[order] = np.arange(K)

    def layout(ds: FeatureDataset) -> tuple:
        # ds's arrays, its row numbers task by task (in dataset order within
        # a task) and the task bounds in that order
        idx = [np.flatnonzero(np.isin(ds.labels, classes)) for classes in groups]
        bounds = (0, *np.cumsum([len(i) for i in idx]).tolist())
        return (_read_only(ds.features), _read_only(ds.labels),
                _read_only(np.concatenate(idx)), bounds)

    return TaskStream(groups, _read_only(head_row), *layout(ds_train), *layout(ds_test))


def step_rows(
    stream: TaskStream, t: int, mem: MemoryBuffer
) -> tuple[RowView, np.ndarray]:
    """The rows a head trains on at step t (1-based): task t's slice of
    ``stream.train_order``, then the exemplars of ``mem`` in ascending
    class id order, as a view of ``stream.train_x`` and their head rows
    (``stream.head_row``)."""
    if not 1 <= t <= stream.num_steps:
        raise ValueError("step index out of range")
    task = stream.train_order[stream.train_bounds[t - 1] : stream.train_bounds[t]]
    exemplars = np.array([r for c in sorted(mem.entries) for r in mem.entries[c]], dtype=np.intp)
    index = np.concatenate([task, exemplars])
    return RowView(stream.train_x, index), stream.head_row[stream.train_y[index]]


def herding_select(class_features: np.ndarray, q: int) -> list[int]:
    """Greedy mean-matching selection.

    At step s the index minimizing ``||mu - mean(selected + {x})||_2`` is
    taken, with ties broken by lowest index; ``mu`` is the class mean.  The
    distance is the floating-point value of
    ``sqrt(add.reduce((mu - (running + x) / s) ** 2))``, ``running`` being
    the sum of the rows taken so far, and the pick is its argmin over the
    untaken rows.

    Each pick screens every row with one matrix-vector product, then
    computes that distance only for the rows the screen cannot rule out
    (usually one, which needs no distance at all).  The screen is
    ``v_x = ||x||^2 + 2 x.(running - s mu)``, which is ``s^2 dist(x)^2``
    less a constant shared by all rows.  Memory stays O(n): no n x n or
    per-pick n x d array is built.
    """
    feats = np.asarray(class_features, dtype=np.float64)
    n, d = feats.shape
    if q <= 0:
        raise ValueError("q must be positive")
    if q > n:
        raise ValueError("q exceeds available rows")
    mu = feats.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", feats, feats)
    # A bounds every row's norm, ||mu||, ||running|| / s and every
    # distance: dist(x) <= ||mu|| + ||(running + x) / s|| <= A up to rounding
    a_sq = (np.sqrt(mu @ mu) + np.sqrt(sq_norms.max())) ** 2
    eps = np.finfo(np.float64).eps
    chosen: list[int] = []
    running = np.zeros(d)
    taken = np.zeros(n, dtype=bool)
    for s in range(1, q + 1):
        # The screen v = ||x||^2 + 2 x.(running - s mu) is s^2 dist(x)^2 less
        # a constant.  Its error bound, with u = eps / 2, A as above and ~
        # marking computed values:
        # - |v~ - v| <= (3d + 7) u s A^2.  ||x||^2 is within d u A^2;
        #   running - s mu is within 2 u s A in norm, and its dot product
        #   with x within d u ||x|| ||running - s mu|| <= d u s A^2; the last
        #   sum adds u (1 + 2s) A^2.
        # - |D~ - dist| <= (d + 5) u A for the distance D~ that decides a
        #   pick: mu - (running + x) / s is within 3 u A of its real value
        #   in norm, and the squares, their sum and the sqrt add (d + 3) u / 2
        #   relative.
        # The row w that wins on D~ has D~_w <= D~_m for the row m of least
        # v~, so dist_w <= dist_m + 2 (d + 5) u A, v_w <= v_m + 4 s^2 (d + 5)
        # u A^2 (1 + o(1)) and v~_w <= v~_m + (10 d + 34) u s^2 A^2.  Every
        # row within 2E of the least v~ is a candidate, and E = 4 (d + s + 4)
        # eps s^2 A^2 is more than half that bound; its s term covers the
        # rounding of running itself.  Too wide a band only costs time;
        # NaN or inf in v keeps every row.
        v = feats @ (running - s * mu)
        v *= 2.0
        v += sq_norms
        v[taken] = np.inf
        band = 8.0 * (d + s + 4) * eps * s * s * a_sq
        cand = np.flatnonzero(~(v > v.min() + band))
        if cand.size == 1:
            i = int(cand[0])
        else:
            # each candidate's distance as defined above; the sqrt stays,
            # since two different squared distances can round to one norm,
            # and that tie goes to the lower index
            part = np.add(running, feats[cand])
            part /= s
            np.subtract(mu, part, out=part)
            part *= part
            dists = np.sqrt(np.add.reduce(part, axis=1))
            dists[taken[cand]] = np.inf
            i = int(cand[np.argmin(dists)])  # argmin returns the lowest tied index
        chosen.append(i)
        taken[i] = True
        running += feats[i]
    return chosen


def rebalance_memory(mem: MemoryBuffer, stream: TaskStream, t: int) -> MemoryBuffer:
    """Rebuild the exemplar store after step t.

    Every class seen through step t gets quota ``q = budget // |Q_t|``:
    an existing list keeps its first q entries in stored order (it never
    holds more than the class's rows), and a new class is filled by
    :func:`herding_select` over its rows of ``stream.train_x``, with q capped
    at its row count.  Leftover budget slots stay unassigned.
    """
    if t < 1:
        raise ValueError("step index must be >= 1")
    seen = stream.classes_through(t)
    entries: dict[int, list[int]] = {}
    if mem.budget <= 0 or not seen:
        return MemoryBuffer(mem.budget, entries)
    q = mem.budget // len(seen)
    if q == 0:
        return MemoryBuffer(mem.budget, entries)
    for c in seen:
        old = mem.entries.get(c)
        if old is not None:
            entries[c] = list(old[:q])
            continue
        rows = np.flatnonzero(stream.train_y == c)
        if rows.size == 0:
            raise DataError(f"class {c} has no training rows")
        picks = herding_select(RowView(stream.train_x, rows).widen(), min(q, rows.size))
        entries[c] = rows[picks].tolist()
    return MemoryBuffer(mem.budget, entries)


def ood_order(ood: FeatureDataset, rng: RngStream) -> np.ndarray:
    """The fixed seeded permutation of ``ood``'s rows whose prefixes
    :func:`ood_subset` takes; it depends only on the stream identity."""
    return rng.child("perm").gen.permutation(ood.n)


def ood_subset(
    ood: FeatureDataset, t: int, total_steps: int, order: np.ndarray
) -> RowView:
    """A view of the rows ``order[:floor(n * t / total_steps)]`` of
    ``ood``'s features, ``order`` being :func:`ood_order`'s permutation.

    One permutation serves every step, so subsets are nested across t:
    subset(t) is a prefix of subset(t+1).  The view holds only the row
    numbers; its reader gathers them from the set a slice at a time.
    """
    if not 1 <= t <= total_steps:
        raise ValueError("step index out of range")
    take = (ood.n * t) // total_steps
    return RowView(ood.features, order[:take])


def load_suite_manifest(path) -> tuple[FeatureDataset, FeatureDataset, OodSuite]:
    """Read a suite manifest JSON; paths are resolved against its directory.

    Schema: {"n_classes": int > 0?, "id_train": str, "id_test": str,
             "ood": [{"name": str, "path": str, "tag": "near"|"far"}],
             "synth_spec": object?}
    Any other key, at the top or in an OOD entry, is an error, as is a
    missing one, named with its entry (``ood[2]``) if it is one.  Every set
    is read by one local ``load``, which also checks that the set is as
    wide as ``id_train``; any failure there names the set and its file.
    ``id_test`` labels must lie below ``id_train``'s class count, and both
    ID sets must hold rows of every class below it: a class without
    training rows would be a head row nothing trains, one without test
    rows a class nothing tests.  A count above ``id_train``'s row count
    fails before the rows of each class are counted.
    """
    path = Path(path)
    doc = read_json(path, "manifest", DataError)
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    # absent, the count is inferred from id_train; present, it is the count
    n_classes = doc.get("n_classes", 0)
    if "n_classes" in doc and not (is_int(n_classes) and n_classes > 0):
        raise DataError(f"manifest n_classes must be a positive integer, not {n_classes!r}")
    if not isinstance(doc.get("ood"), list) or not doc["ood"]:
        raise DataError("manifest 'ood' must be a nonempty list of OOD sets")
    if not all(isinstance(e, dict) for e in doc["ood"]):
        raise DataError("manifest 'ood' entries must be objects")
    unknown = sorted(doc.keys() - {"n_classes", "id_train", "id_test", "ood", "synth_spec"})
    unknown += [f"ood[{i}].{key}" for i, e in enumerate(doc["ood"])
                for key in sorted(e.keys() - {"name", "path", "tag"})]
    if unknown:
        raise DataError(f"manifest has unknown keys: {', '.join(unknown)}")
    named = [(doc, "id_train"), (doc, "id_test")]
    named += [(e, key) for e in doc["ood"] for key in ("name", "path")]
    bad = [f"{key}={d[key]!r}" for d, key in named if not isinstance(d.get(key, ""), str)]
    if bad:
        raise DataError(f"manifest names and paths must be strings: {', '.join(bad)}")
    missing = [("", key) for key in ("id_train", "id_test") if key not in doc]
    missing += [(f" ood[{i}]", key) for i, e in enumerate(doc["ood"])
                for key in ("name", "path", "tag") if key not in e]
    if missing:
        where, key = missing[0]
        raise DataError(f"manifest{where} missing field {key!r}")

    def load(name: str, rel: str, n_classes: int = 0, dim: int | None = None) -> FeatureDataset:
        try:
            ds = load_dataset(path.parent / rel, n_classes)
            if dim is not None and ds.dim != dim:
                raise DataError(f"{ds.dim} features per row, id_train has {dim}")
            return ds
        except DataError as exc:
            raise DataError(f"manifest set {name!r} ({rel}): {exc}") from exc

    train = load("id_train", doc["id_train"], n_classes)
    test = load("id_test", doc["id_test"], train.n_classes, train.dim)
    entries = tuple(
        OodEntry(e["name"], load(e["name"], e["path"], dim=train.dim), e["tag"])
        for e in doc["ood"]
    )
    if train.n_classes > train.n:
        raise DataError(f"manifest class count {train.n_classes} exceeds id_train's {train.n} rows")
    for name, ds in (("id_train", train), ("id_test", test)):
        missing = np.flatnonzero(np.bincount(ds.labels, minlength=train.n_classes) == 0)
        if missing.size:
            raise DataError(
                f"manifest set {name!r} has no rows of classes {missing.tolist()}"
                f" (the class count is {train.n_classes})"
            )
    return train, test, OodSuite(entries)
