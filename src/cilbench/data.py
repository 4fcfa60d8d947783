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

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows_for_class(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.labels == c)

    def subset(self, idx) -> "FeatureDataset":
        idx = np.asarray(idx, dtype=np.int64)
        return FeatureDataset(self.features[idx], self.labels[idx], self.n_classes)


@dataclass(frozen=True)
class Task:
    train: FeatureDataset
    test: FeatureDataset
    classes: tuple[int, ...]


@dataclass(frozen=True)
class TaskStream:
    """Ordered partition of classes into tasks with disjoint label sets."""

    tasks: tuple[Task, ...]

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

    def class_features(self, c: int) -> np.ndarray:
        """Training rows of class c, in their original order."""
        for task in self.tasks:
            if c in task.classes:
                return task.train.features[task.train.rows_for_class(c)]
        raise DataError(f"class {c} is in no task")

    def test_through(self, t: int) -> FeatureDataset:
        """Union of the test sets of tasks 1..t."""
        feats = np.concatenate([task.test.features for task in self.tasks[:t]])
        labels = np.concatenate([task.test.labels for task in self.tasks[:t]])
        n_classes = self.tasks[0].train.n_classes
        return FeatureDataset(feats, labels, n_classes)


@dataclass
class MemoryBuffer:
    """Fixed-budget exemplar store; ``entries[c]`` indexes rows of class c
    within that class's training rows (see :meth:`TaskStream.class_features`)."""

    budget: int
    entries: dict[int, list[int]] = field(default_factory=dict)

    def total(self) -> int:
        return sum(len(v) for v in self.entries.values())


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
        fh.write(ds.features.astype("<f4").tobytes(order="C"))
        fh.write(ds.labels.astype("<i4").tobytes(order="C"))


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


def split_tasks(
    ds_train: FeatureDataset,
    ds_test: FeatureDataset,
    k: int,
    class_order: RngStream | None = None,
) -> TaskStream:
    """Partition classes into ceil(K/k) tasks of k classes (last task takes
    the remainder).  Classes are taken in id order, or in the permutation
    drawn from ``class_order.child("class-order")`` when one is given."""
    K = ds_train.n_classes
    if k < 2:
        raise ValueError("step size k must be >= 2")
    if k > K:
        raise ValueError(f"step size {k} exceeds class count {K}")
    if class_order is None:
        order = np.arange(K)
    else:
        order = class_order.child("class-order").gen.permutation(K)
    tasks = []
    for start in range(0, K, k):
        classes = tuple(int(c) for c in order[start : start + k])
        tr_idx = np.flatnonzero(np.isin(ds_train.labels, classes))
        te_idx = np.flatnonzero(np.isin(ds_test.labels, classes))
        tasks.append(
            Task(ds_train.subset(tr_idx), ds_test.subset(te_idx), classes)
        )
    return TaskStream(tuple(tasks))


def step_rows(
    stream: TaskStream, t: int, mem: MemoryBuffer
) -> tuple[np.ndarray, np.ndarray]:
    """The rows a head trains on at step t (1-based): task t's training
    rows, then the exemplars of ``mem`` in ascending class order, as
    (features, labels).  With no exemplars, task t's own arrays."""
    train = stream.tasks[t - 1].train
    xs, ys = [train.features], [train.labels]
    for c in sorted(mem.entries):
        idx = mem.entries[c]
        if idx:
            xs.append(stream.class_features(c)[np.asarray(idx, dtype=np.int64)])
            ys.append(np.full(len(idx), c, dtype=np.int64))
    if len(xs) == 1:
        return train.features, train.labels
    return np.concatenate(xs), np.concatenate(ys)


def herding_select(class_features: np.ndarray, q: int) -> list[int]:
    """Greedy mean-matching selection.

    At step s the index minimizing ``||mu - mean(selected + {x})||_2`` is
    taken, with ties broken by lowest index; ``mu`` is the class mean.
    """
    feats = np.asarray(class_features, dtype=np.float64)
    n = feats.shape[0]
    if q <= 0:
        raise ValueError("q must be positive")
    if q > n:
        raise ValueError("q exceeds available rows")
    mu = feats.mean(axis=0)
    chosen: list[int] = []
    running = np.zeros(feats.shape[1])
    taken = np.zeros(n, dtype=bool)
    buf = np.empty_like(feats)
    for s in range(1, q + 1):
        # ||mu - (running + x) / s|| for every row, in one reused buffer and
        # with np.linalg.norm's own operations; the sqrt stays, since two
        # different squared distances can round to one norm, and that tie
        # goes to the lower index
        np.add(running, feats, out=buf)
        buf /= s
        np.subtract(mu, buf, out=buf)
        buf *= buf
        dists = np.sqrt(np.add.reduce(buf, axis=1))
        dists[taken] = np.inf
        i = int(np.argmin(dists))  # argmin returns the lowest tied index
        chosen.append(i)
        taken[i] = True
        running += feats[i]
    return chosen


def rebalance_memory(mem: MemoryBuffer, stream: TaskStream, t: int) -> MemoryBuffer:
    """Rebuild the exemplar store after step t.

    Every class seen through step t gets quota ``q = budget // |Q_t|``:
    an existing list keeps its first q entries in stored order (it never
    holds more than the class's rows), and a new class is filled by
    :func:`herding_select` with q capped at its row count.  Leftover
    budget slots stay unassigned.
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
        feats = stream.class_features(c)
        if feats.shape[0] == 0:
            raise DataError(f"class {c} has no training rows")
        entries[c] = herding_select(feats, min(q, feats.shape[0]))
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
