"""Seeded Gaussian-mixture generator for desk-scale benchmark runs.

ID classes are isotropic Gaussians whose means sit at a fixed radius on
random unit directions.  Near-OOD rows are sampled around midpoints of
ID class-mean pairs (small semantic shift).  Far-OOD sets each get a
reserved coordinate axis that carries no class signal: their rows sit at
the far radius along that positive axis, with the residual noise
projected off the class-mean span.  Far rows are therefore orthogonal
to every class mean (distance >= far_radius from all of them) and carry
no large negative coordinates, so they stay separable for every scorer,
including activation-clipping ones.  Everything is a pure function of
the spec.

Each class and each OOD set is drawn from its own child stream, in a
fixed order, into its own rows of arrays that the calling thread
allocates first.  The class and near-OOD draws run on a thread pool of
one worker per usable core (numpy's generators release the GIL), while
the calling thread draws the far sets one at a time, since their
projection off the class-mean span is a BLAS product; a small suite is
drawn on the calling thread alone.  Since no task reads another's rows
or stream, no byte depends on the number of workers or on which one ran
a task.

Every value is computed in float64.  ``generate`` returns float64 arrays
for a run and float32 ones for ``write_synth_suite``, which writes them
as they are.  A float64 suite is drawn straight into the returned
arrays.  A float32 one is drawn chunk by chunk into reused float64
buffers, each cast once into its rows.  A near set's stream holds the
jitter of every row before the noise of any, so its noise comes from a
copy of the stream advanced past the jitter.  A far set's projection
needs the whole set: its float64 noise is held until projected, then
drawn again chunk by chunk, so at most one far set's float64 noise or
projection is held at a time, on the calling thread.  A written suite
is held once, in float32, beside that and one chunk per worker.
"""
from __future__ import annotations

import copy
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .configcheck import check_field_types, is_int, parse_section
from .data import DataError, FeatureDataset, OodEntry, OodSuite, save_dataset
from .numerics import RngStream, usable_cores

__all__ = ["SynthSpec", "generate", "write_synth_suite"]

# A worker's reused buffer holds at most this many values.
_CHUNK_CELLS = 1 << 14
# At most one worker per this many values of the classes and near sets, so
# a small suite is drawn on the calling thread and pays nothing for a pool.
_VALUES_PER_WORKER = 1 << 20


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int = 20
    dim: int = 32
    n_train_per_class: int = 200
    n_test_per_class: int = 50
    mean_radius: float = 5.0
    std: float = 1.0
    far_radius: float = 50.0
    near_jitter: float = 0.5
    n_ood_per_set: int = 1000
    n_near_sets: int = 2
    n_far_sets: int = 2
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        # RngStream reads seeds modulo 2^64: one outside [0, 2^64) aliases another
        if not (is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.n_classes < 4:
            raise ValueError("need at least 4 classes")
        if min(self.dim, self.n_train_per_class, self.n_test_per_class,
               self.n_ood_per_set, self.n_near_sets + self.n_far_sets) <= 0:
            raise ValueError("counts must be positive")
        if min(self.n_near_sets, self.n_far_sets) < 0:
            raise ValueError("OOD set counts must be nonnegative")
        if min(self.mean_radius, self.std, self.far_radius, self.near_jitter) <= 0:
            raise ValueError("geometry parameters must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthSpec":
        return parse_section(cls, doc, "synth spec")

    def to_dict(self) -> dict:
        return asdict(self)


def _reserved_axes(spec: SynthSpec) -> int:
    """How many trailing coordinates are reserved for the far-OOD axes:
    ``n_far_sets`` when the other coordinates outnumber the classes, else 0."""
    return spec.n_far_sets if spec.dim - spec.n_far_sets > spec.n_classes else 0


def _class_means(spec: SynthSpec, rng: RngStream) -> np.ndarray:
    """Class means at the given radius, zero on the reserved far-OOD axes
    (see :func:`_reserved_axes`)."""
    d = spec.dim
    reserved = _reserved_axes(spec)
    g = rng.child("class-means").gen.normal(size=(spec.n_classes, d - reserved))
    dirs = np.zeros((spec.n_classes, d))
    dirs[:, : d - reserved] = g / np.linalg.norm(g, axis=1, keepdims=True)
    return spec.mean_radius * dirs


def _chunks(n: int, d: int):
    """Row slices covering 0..n of at most _CHUNK_CELLS values each, with
    a view of one reused float64 buffer in each slice's shape."""
    h = max(1, min(n, _CHUNK_CELLS // d))
    buf = np.empty((h, d))
    for a in range(0, n, h):
        yield slice(a, a + h), buf[: min(h, n - a)]


def _float64_parts(rows: np.ndarray):
    """(part, b) pairs covering ``rows`` in order, ``b`` a float64 array
    shaped like ``rows[part]``: ``rows`` itself, in one part, when it is
    float64, else a reused chunk for :func:`_cast` to write back."""
    if rows.dtype == np.float64:
        yield slice(None), rows
    else:
        yield from _chunks(*rows.shape)


def _cast(b: np.ndarray, rows: np.ndarray) -> None:
    """Write the float64 values ``b`` into ``rows`` unless they are its own.
    A value float32 cannot hold becomes inf, which the set's check finds."""
    if rows.dtype != b.dtype:
        with np.errstate(over="ignore"):
            rows[...] = b


class _Float32Overflow(DataError):
    """A feature value of the set ``name`` that float32 cannot hold."""

    def __init__(self, name: str):
        super().__init__(f"a feature value of {name} overflows float32")
        self.name = name


def generate(
    spec: SynthSpec, dtype=np.float64
) -> tuple[FeatureDataset, FeatureDataset, OodSuite]:
    """Deterministic (train, test, ood suite) for the given spec, with
    features of ``dtype``: float64, or float32 cast once from the same
    float64 values, where a value float32 cannot hold is a :class:`DataError`.

    Each class and each OOD set is one task that draws from its own child
    stream, in a fixed order, into its own rows of arrays allocated here;
    the class and near-set tasks run on up to one worker per usable core
    while this thread draws the far sets, and no byte depends on how many."""
    dtype = np.dtype(dtype)
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"generate returns float64 or float32 features, not {dtype}")
    wide = dtype == np.float64
    rng = RngStream(spec.seed, "synthgen")
    means = _class_means(spec, rng)
    K, d, n = spec.n_classes, spec.dim, spec.n_ood_per_set
    n_tr, n_te = spec.n_train_per_class, spec.n_test_per_class
    reserved = _reserved_axes(spec)
    # Every returned array, and all scratch larger than a chunk, is
    # allocated on the calling thread; a worker allocates nothing larger
    # than a chunk.  Sets allocated inside workers were left in glibc's
    # per-thread arenas: scaled_ber's peak RSS read 214.7-218.4 MB against
    # 185.3 MB drawn serially.
    train_x = np.empty((K * n_tr, d), dtype)
    test_x = np.empty((K * n_te, d), dtype)
    near = [np.empty((n, d), dtype) for _ in range(spec.n_near_sets)]
    far = [np.empty((n, d), dtype) for _ in range(spec.n_far_sets)]
    q = np.linalg.qr(means.T, mode="reduced")[0] if reserved else None

    def draw_class(c: int) -> None:
        # one stream for the class's train rows, then its test rows
        gen = rng.child(f"class{c}").gen
        for rows in (train_x[c * n_tr : (c + 1) * n_tr], test_x[c * n_te : (c + 1) * n_te]):
            for part, b in _float64_parts(rows):
                gen.standard_normal(out=b)
                b *= spec.std
                b += means[c]
                _cast(b, rows[part])

    def draw_near(s: int) -> None:
        # around the midpoint of a pair of distinct classes i, j.  The stream
        # holds the jitter of every row before the noise of any: a float64
        # set draws all its jitter, then its noise; a float32 one goes chunk
        # by chunk, its noise from a copy of the stream advanced past the jitter
        gen = rng.child(f"near{s}").gen
        i = gen.integers(0, K, n)
        j = (i + 1 + gen.integers(0, K - 1, n)) % K
        noise = gen
        if not wide:
            noise = copy.deepcopy(gen)
            for _, b in _chunks(n, d):
                noise.standard_normal(out=b)
        for part, rows in _float64_parts(near[s]):
            gen.standard_normal(out=rows)
            rows *= spec.near_jitter
            i_part, j_part = i[part], j[part]
            for sub, b in _chunks(*rows.shape):
                np.add(means[i_part[sub]], means[j_part[sub]], out=b)
                b *= 0.5
                rows[sub] += b
                noise.standard_normal(out=b)
                b *= spec.std
                rows[sub] += b
            _cast(rows, near[s][part])

    def draw_far(s: int) -> None:
        # on the calling thread, one set at a time, so a float32 set's whole
        # float64 scratch is allocated here
        gen = rng.child(f"far{s}").gen
        rows = far[s] if wide else np.empty((n, d))
        gen.standard_normal(out=rows)
        rows *= spec.std
        if not reserved:
            # no reserved axes: random shell directions
            for part, b in _chunks(n, d):
                gen.standard_normal(out=b)
                b /= np.linalg.norm(b, axis=1, keepdims=True)
                b *= spec.far_radius
                rows[part] += b
            _cast(rows, far[s])
            return
        # the residual noise projected off the class-mean span, then the far
        # radius along the set's own reserved axis.  A float32 set's noise
        # is dropped once projected and drawn again chunk by chunk, so it is
        # never held beside the projection as a whole float64 set
        proj = rows @ q
        rows = None
        proj = proj @ q.T
        axis = np.zeros(d)
        axis[d - reserved + s] = 1.0
        again = rng.child(f"far{s}").gen
        for part, b in _float64_parts(far[s]):
            if not wide:
                again.standard_normal(out=b)
                b *= spec.std
            b -= proj[part]
            b += spec.far_radius * axis
            _cast(b, far[s][part])

    # largest first, so the last task to finish is a small one
    tasks = (
        [partial(draw_near, s) for s in range(spec.n_near_sets)]
        + [partial(draw_class, c) for c in range(K)]
    )
    values = train_x.size + test_x.size + n * d * len(near)
    workers = min(usable_cores(), len(tasks), values // _VALUES_PER_WORKER)
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            drawn = pool.map(lambda task: task(), tasks)
            for s in range(spec.n_far_sets):  # on this thread, beside the pool
                draw_far(s)
            list(drawn)  # re-raises a worker's error
    else:
        for task in tasks:
            task()
        for s in range(spec.n_far_sets):
            draw_far(s)

    def dataset(name: str, rows: np.ndarray, labels: np.ndarray, k: int) -> FeatureDataset:
        try:
            return FeatureDataset(rows, labels, k)
        except DataError:
            if wide:
                raise
            raise _Float32Overflow(name) from None  # float64 values are finite

    classes = np.arange(K, dtype=np.int64)
    train = dataset("id_train", train_x, np.repeat(classes, n_tr), K)
    test = dataset("id_test", test_x, np.repeat(classes, n_te), K)
    entries = []
    for tag, sets in (("near", near), ("far", far)):
        for s, rows in enumerate(sets):
            name = f"{tag}{s + 1}"
            entries.append(OodEntry(name, dataset(name, rows, np.zeros(n, np.int64), 1), tag))
    return train, test, OodSuite(tuple(entries))


def write_synth_suite(spec: SynthSpec, out_dir) -> Path:
    """Generate a float32 suite and write its binary datasets plus a suite
    manifest JSON.

    Every file is written under a temporary name in ``out_dir`` and renamed
    into place only once all of them are written, the manifest last.  So a
    suite that fails to write (a value float32 cannot hold, a full disk)
    leaves the directory's files as they were; a failed rename can leave
    some renamed.  Either way no temporary file is left."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        train, test, suite = generate(spec, np.float32)
    except _Float32Overflow as exc:
        fname = f"{exc.name}.bin" if exc.name.startswith("id_") else f"ood_{exc.name}.bin"
        raise DataError(f"cannot write {out / fname}: a feature value overflows float32") from None
    sets = {"id_train.bin": train, "id_test.bin": test}
    ood_docs = []
    for entry in suite.entries:
        fname = f"ood_{entry.name}.bin"
        sets[fname] = entry.dataset
        ood_docs.append({"name": entry.name, "path": fname, "tag": entry.tag})
    manifest = {
        "n_classes": spec.n_classes,
        "id_train": "id_train.bin",
        "id_test": "id_test.bin",
        "ood": ood_docs,
        "synth_spec": spec.to_dict(),
    }
    temps = {name: out / f".{name}.tmp" for name in [*sets, "manifest.json"]}
    try:
        for name, ds in sets.items():
            save_dataset(ds, out / name, temps[name])
        temps["manifest.json"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for name, temp in temps.items():
            os.replace(temp, out / name)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise
    return out / "manifest.json"
