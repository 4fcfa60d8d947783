"""Dataset containers, task streams, replay memory, and OOD test subsets.

Feature datasets are plain (n, d) float64 matrices with integer labels.
The binary on-disk format is little-endian:

    magic "OCF1" | u32 version=1 | u32 n | u32 d
    n*d float32 features (row-major) | n int32 labels

A suite manifest is a JSON document naming the ID train/test files and a
list of OOD datasets, each tagged ``near`` or ``far``.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .configcheck import is_int
from .numerics import RngStream

__all__ = [
    "DataError",
    "FormatError",
    "DimensionMismatchError",
    "LabelOutOfRangeError",
    "NonFiniteFeatureError",
    "FeatureDataset",
    "Task",
    "TaskStream",
    "MemoryBuffer",
    "OodEntry",
    "OodSuite",
    "save_dataset",
    "load_dataset",
    "split_tasks",
    "step_rows",
    "rebalance_memory",
    "herding_select",
    "ood_subset",
    "load_suite_manifest",
]

_MAGIC = b"OCF1"
_VERSION = 1
_SAVE_ROWS = 4096


class DataError(Exception):
    """Base class for dataset ingestion errors."""


class FormatError(DataError):
    """Malformed header, truncated payload, or unparsable text."""


class DimensionMismatchError(DataError):
    """Row width disagrees with the declared feature dimension."""


class LabelOutOfRangeError(DataError):
    """A label falls outside [0, n_classes)."""


class NonFiniteFeatureError(DataError):
    """A feature value is NaN or infinite."""


@dataclass(frozen=True)
class FeatureDataset:
    """Rows of feature vectors with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int = 0

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise FormatError("features must be a nonempty (n, d) matrix")
        if labels.shape != (feats.shape[0],):
            raise DimensionMismatchError("labels must have one entry per row")
        if not np.all(np.isfinite(feats)):
            raise NonFiniteFeatureError("non-finite feature value")
        n_classes = self.n_classes
        if n_classes <= 0:
            n_classes = int(labels.max()) + 1
        if labels.min() < 0 or labels.max() >= n_classes:
            raise LabelOutOfRangeError(
                f"labels must lie in [0, {n_classes})"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_classes", n_classes)

    @classmethod
    def _of_checked(cls, features, labels, n_classes: int) -> "FeatureDataset":
        """A dataset of rows taken from one already checked (a view or a
        gather of its float64 features and int64 labels): those rows are
        finite and their labels in range, so only emptiness is checked."""
        if features.shape[0] == 0:
            raise FormatError("features must be a nonempty (n, d) matrix")
        ds = object.__new__(cls)
        for name, value in (("features", features), ("labels", labels), ("n_classes", n_classes)):
            object.__setattr__(ds, name, value)
        return ds

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "FeatureDataset":
        idx = np.asarray(idx, dtype=np.int64)
        return FeatureDataset._of_checked(self.features[idx], self.labels[idx], self.n_classes)


@dataclass(frozen=True)
class Task:
    train: FeatureDataset
    test: FeatureDataset
    classes: tuple[int, ...]


@dataclass(frozen=True)
class TaskStream:
    """Ordered partition of classes into tasks with disjoint label sets.

    ``train`` and ``test`` hold every task's rows, task by task; task t's
    test rows end at ``test_ends[t - 1]``.  Built by :func:`split_tasks`,
    whose task sets are read-only views of ``train`` and ``test``.
    """

    tasks: tuple[Task, ...]
    train: FeatureDataset
    test: FeatureDataset
    test_ends: tuple[int, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for task in self.tasks:
            cls = set(task.classes)
            if cls & seen:
                raise DataError("task class sets must be pairwise disjoint")
            seen |= cls
            for part in (task.train, task.test):
                if not set(np.unique(part.labels)) <= cls:
                    raise DataError("task datasets may only contain task classes")

    @property
    def num_steps(self) -> int:
        return len(self.tasks)

    def classes_through(self, t: int) -> tuple[int, ...]:
        """Seen-class set after step t (1-based), in task order."""
        out: list[int] = []
        for task in self.tasks[:t]:
            out.extend(task.classes)
        return tuple(out)

    def test_through(self, t: int) -> FeatureDataset:
        """Union of the test sets of tasks 1..t: a prefix view of ``test``."""
        if not 1 <= t <= self.num_steps:
            raise ValueError("step index out of range")
        end = self.test_ends[t - 1]
        test = self.test
        return FeatureDataset._of_checked(test.features[:end], test.labels[:end], test.n_classes)


@dataclass
class MemoryBuffer:
    """Fixed-budget exemplar store; ``entries[c]`` lists the rows of
    ``TaskStream.train`` that class c keeps, in pick order."""

    budget: int
    entries: dict[int, list[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class OodEntry:
    name: str
    dataset: FeatureDataset
    tag: str  # "near" | "far"

    def __post_init__(self):
        if self.tag not in ("near", "far"):
            raise DataError(f"unknown OOD tag {self.tag!r}")


@dataclass(frozen=True)
class OodSuite:
    entries: tuple[OodEntry, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise DataError("OOD dataset names must be unique")


def save_dataset(ds: FeatureDataset, path) -> None:
    """Write the binary feature format (little-endian, float32 payload)."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, ds.n, ds.dim))
        # float32 blocks of _SAVE_ROWS rows, each written from its own buffer:
        # the payload is never held as a whole second copy, nor as bytes
        for start in range(0, ds.n, _SAVE_ROWS):
            fh.write(memoryview(ds.features[start : start + _SAVE_ROWS].astype("<f4")))
        fh.write(memoryview(ds.labels.astype("<i4")))


def load_dataset(path, n_classes: int = 0) -> FeatureDataset:
    """Load a binary feature file, validating all invariants.

    ``n_classes`` caps the label range when the caller knows the class
    count (labels >= n_classes raise :class:`LabelOutOfRangeError`).
    """
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    raw = path.read_bytes()
    if len(raw) < 16:
        raise FormatError("file too short for header")
    if raw[:4] != _MAGIC:
        raise FormatError("bad magic, expected OCF1")
    version, n, d = struct.unpack("<III", raw[4:16])
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    expect = 16 + 4 * n * d + 4 * n
    if len(raw) != expect:
        raise FormatError(f"payload size mismatch ({len(raw)} != {expect})")
    feats = np.frombuffer(raw, dtype="<f4", count=n * d, offset=16)
    labels = np.frombuffer(raw, dtype="<i4", count=n, offset=16 + 4 * n * d)
    return FeatureDataset(
        feats.astype(np.float64).reshape(n, d), labels.astype(np.int64), n_classes
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that no step can write through."""
    view = a.view()
    view.flags.writeable = False
    return view


def _task_major(ds: FeatureDataset, groups) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``ds``'s features and labels regrouped task by task, in their original
    order within each task, read-only, and the row bounds of the tasks:
    the t-th group (0-based) spans rows ``bounds[t]:bounds[t + 1]``."""
    idx = [np.flatnonzero(np.isin(ds.labels, classes)) for classes in groups]
    bounds = [0, *np.cumsum([len(i) for i in idx]).tolist()]
    rows = np.concatenate(idx)
    feats, labels = ds.features, ds.labels
    if not np.array_equal(rows, np.arange(ds.n)):
        # a seeded class order or rows not sorted by class: one gather puts
        # each task's rows in one run, so every task is a view of it
        feats, labels = feats[rows], labels[rows]
    return _read_only(feats), _read_only(labels), bounds


def split_tasks(
    ds_train: FeatureDataset,
    ds_test: FeatureDataset,
    k: int,
    class_order: RngStream | None = None,
) -> TaskStream:
    """Partition classes into ceil(K/k) tasks of k classes (last task takes
    the remainder).  Classes are taken in id order, or in the permutation
    drawn from ``class_order.child("class-order")`` when one is given.

    ``train``, ``test`` and the task sets are read-only row slices of one
    task-major copy of each input; rows already laid out task by task
    (identity order on class-sorted rows) are not copied at all, so the
    stream shares the inputs' memory.
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
    groups = [tuple(int(c) for c in order[start : start + k]) for start in range(0, K, k)]
    train_x, train_y, train_bounds = _task_major(ds_train, groups)
    test_x, test_y, test_bounds = _task_major(ds_test, groups)

    # the inputs were checked when they were built; their views and
    # gathers are not checked again
    def rows(x, y, bounds, t):
        part = slice(bounds[t], bounds[t + 1])
        return FeatureDataset._of_checked(x[part], y[part], K)

    tasks = tuple(
        Task(rows(train_x, train_y, train_bounds, t), rows(test_x, test_y, test_bounds, t), classes)
        for t, classes in enumerate(groups)
    )
    return TaskStream(
        tasks, FeatureDataset._of_checked(train_x, train_y, K),
        FeatureDataset._of_checked(test_x, test_y, K), tuple(test_bounds[1:]),
    )


def step_rows(
    stream: TaskStream, t: int, mem: MemoryBuffer
) -> tuple[np.ndarray, np.ndarray]:
    """The rows a head trains on at step t (1-based): task t's training
    rows, then the exemplars of ``mem`` in ascending class order, as
    (features, labels).  With no exemplars, task t's own arrays."""
    train = stream.tasks[t - 1].train
    rows = [r for c in sorted(mem.entries) for r in mem.entries[c]]
    if not rows:
        return train.features, train.labels
    # exemplars come from other tasks' rows, so the rows a step trains on
    # are not one run of the suite: this copy is the step's
    return (
        np.concatenate([train.features, stream.train.features[rows]]),
        np.concatenate([train.labels, stream.train.labels[rows]]),
    )


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
    :func:`herding_select` over its rows of ``stream.train``, with q capped
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
        rows = np.flatnonzero(stream.train.labels == c)
        if rows.size == 0:
            raise DataError(f"class {c} has no training rows")
        picks = herding_select(stream.train.features[rows], min(q, rows.size))
        entries[c] = rows[picks].tolist()
    return MemoryBuffer(mem.budget, entries)


def ood_subset(
    ood: FeatureDataset, t: int, total_steps: int, rng: RngStream
) -> FeatureDataset:
    """First floor(n * t / total_steps) rows of a fixed seeded permutation.

    The permutation depends only on the stream identity, so subsets are
    nested across t: subset(t) is a prefix of subset(t+1).
    """
    if not 1 <= t <= total_steps:
        raise ValueError("step index out of range")
    perm = rng.child("perm").gen.permutation(ood.n)
    take = (ood.n * t) // total_steps
    # a permuted prefix is no run of rows, so the subset is a copy
    return ood.subset(perm[:take])


def load_suite_manifest(path) -> tuple[FeatureDataset, FeatureDataset, OodSuite]:
    """Read a suite manifest JSON; paths are resolved against its directory.

    Schema: {"n_classes": int?, "id_train": str, "id_test": str,
             "ood": [{"name": str, "path": str, "tag": "near"|"far"}]}
    ``id_test`` and every OOD set must be as wide as ``id_train``, and
    ``id_test`` labels must lie below ``id_train``'s class count.  Both ID
    sets must hold rows of every class below that count: a class without
    training rows would be a head row nothing trains, one without test
    rows a class nothing tests.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"manifest {path} is not a JSON object")
    base = path.parent
    n_classes = doc.get("n_classes", 0)
    if not is_int(n_classes):
        raise FormatError(f"manifest n_classes must be an integer, not {n_classes!r}")
    if not isinstance(doc.get("ood"), list) or not doc["ood"]:
        raise FormatError("manifest 'ood' must be a nonempty list of OOD sets")
    if not all(isinstance(e, dict) for e in doc["ood"]):
        raise FormatError("manifest 'ood' entries must be objects")
    named = [(doc, "id_train"), (doc, "id_test")]
    named += [(e, key) for e in doc["ood"] for key in ("name", "path")]
    bad = [f"{key}={d[key]!r}" for d, key in named if not isinstance(d.get(key, ""), str)]
    if bad:
        raise FormatError(f"manifest names and paths must be strings: {', '.join(bad)}")
    try:
        train = load_dataset(base / doc["id_train"], n_classes)
        try:
            test = load_dataset(base / doc["id_test"], train.n_classes)
        except LabelOutOfRangeError as exc:
            raise LabelOutOfRangeError(f"manifest set 'id_test': {exc}") from exc
        entries = tuple(
            OodEntry(e["name"], load_dataset(base / e["path"]), e["tag"])
            for e in doc["ood"]
        )
    except KeyError as exc:
        raise FormatError(f"manifest missing field {exc}") from exc
    for name, ds in [("id_test", test)] + [(e.name, e.dataset) for e in entries]:
        if ds.dim != train.dim:
            raise DimensionMismatchError(
                f"manifest set {name!r} has {ds.dim} features per row, id_train has {train.dim}"
            )
    for name, ds in (("id_train", train), ("id_test", test)):
        missing = np.flatnonzero(np.bincount(ds.labels, minlength=train.n_classes) == 0)
        if missing.size:
            raise DataError(
                f"manifest set {name!r} has no rows of classes {missing.tolist()}"
                f" (the class count is {train.n_classes})"
            )
    return train, test, OodSuite(entries)
