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
allocates first.  The draws run on a thread pool of one worker per
usable core (numpy's generators release the GIL), and a small suite is
drawn on the calling thread alone.  Since no task reads another's rows
or stream, no byte depends on the number of workers or on which one ran
a task.  The far sets' projection off the class-mean span, a BLAS
product, runs on the calling thread after the draws.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .configcheck import check_field_types, parse_section
from .data import FeatureDataset, OodEntry, OodSuite, save_dataset
from .numerics import RngStream, usable_cores

__all__ = ["SynthSpec", "generate", "write_synth_suite"]

# A worker's reused buffer holds at most this many values.
_CHUNK_CELLS = 1 << 14
# At most one worker per this many returned values, so a small suite is
# drawn on the calling thread and pays nothing for a pool.
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
    a view of one reused buffer in each slice's shape."""
    h = max(1, min(n, _CHUNK_CELLS // d))
    buf = np.empty((h, d))
    for a in range(0, n, h):
        yield slice(a, a + h), buf[: min(h, n - a)]


def generate(spec: SynthSpec) -> tuple[FeatureDataset, FeatureDataset, OodSuite]:
    """Deterministic (train, test, ood suite) for the given spec.

    Each class and each OOD set is one task that draws from its own child
    stream, in a fixed order, into its own rows of arrays allocated here;
    the tasks run on up to one worker per usable core, and no byte depends
    on how many."""
    rng = RngStream(spec.seed, "synthgen")
    means = _class_means(spec, rng)
    K, d, n = spec.n_classes, spec.dim, spec.n_ood_per_set
    n_tr, n_te = spec.n_train_per_class, spec.n_test_per_class
    reserved = _reserved_axes(spec)
    # Every returned array is allocated here, on the calling thread, and a
    # worker allocates nothing larger than a chunk.  Sets allocated inside
    # workers were left in glibc's per-thread arenas: scaled_ber's peak RSS
    # read 214.7-218.4 MB against 185.3 MB drawn serially.
    train_x = np.empty((K * n_tr, d))
    test_x = np.empty((K * n_te, d))
    near = [np.empty((n, d)) for _ in range(spec.n_near_sets)]
    far = [np.empty((n, d)) for _ in range(spec.n_far_sets)]

    def draw_class(c: int) -> None:
        # one stream for the class's train rows, then its test rows
        gen = rng.child(f"class{c}").gen
        for rows in (train_x[c * n_tr : (c + 1) * n_tr], test_x[c * n_te : (c + 1) * n_te]):
            gen.standard_normal(out=rows)
            rows *= spec.std
            rows += means[c]

    def draw_near(s: int) -> None:
        # around the midpoint of a pair of distinct classes i, j: the jitter
        # of every row is drawn before the noise of any
        gen = rng.child(f"near{s}").gen
        i = gen.integers(0, K, n)
        j = (i + 1 + gen.integers(0, K - 1, n)) % K
        rows = near[s]
        gen.standard_normal(out=rows)
        rows *= spec.near_jitter
        for part, b in _chunks(n, d):
            np.add(means[i[part]], means[j[part]], out=b)
            b *= 0.5
            rows[part] += b
            gen.standard_normal(out=b)
            b *= spec.std
            rows[part] += b

    def draw_far(s: int) -> None:
        gen = rng.child(f"far{s}").gen
        rows = far[s]
        gen.standard_normal(out=rows)
        rows *= spec.std
        if reserved:  # the axis and the projection follow on the calling thread
            return
        # no reserved axes: random shell directions
        for part, b in _chunks(n, d):
            gen.standard_normal(out=b)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            b *= spec.far_radius
            rows[part] += b

    # largest first, so the last task to finish is a small one
    tasks = (
        [partial(draw_near, s) for s in range(spec.n_near_sets)]
        + [partial(draw_far, s) for s in range(spec.n_far_sets)]
        + [partial(draw_class, c) for c in range(K)]
    )
    values = train_x.size + test_x.size + n * d * (len(near) + len(far))
    workers = min(usable_cores(), len(tasks), values // _VALUES_PER_WORKER)
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda task: task(), tasks))  # re-raises a worker's error
    else:
        for task in tasks:
            task()

    if reserved:
        # the residual noise projected off the class-mean span, then the
        # far radius along the set's own reserved axis
        q, _ = np.linalg.qr(means.T, mode="reduced")
        for s, rows in enumerate(far):
            rows -= (rows @ q) @ q.T
            axis = np.zeros(d)
            axis[d - reserved + s] = 1.0
            rows += spec.far_radius * axis

    classes = np.arange(K, dtype=np.int64)
    train = FeatureDataset(train_x, np.repeat(classes, n_tr), K)
    test = FeatureDataset(test_x, np.repeat(classes, n_te), K)
    entries = [
        OodEntry(f"{tag}{s + 1}", FeatureDataset(rows, np.zeros(n, np.int64), 1), tag)
        for tag, sets in (("near", near), ("far", far))
        for s, rows in enumerate(sets)
    ]
    return train, test, OodSuite(tuple(entries))


def write_synth_suite(spec: SynthSpec, out_dir) -> Path:
    """Generate and write binary datasets plus a suite manifest JSON.

    Every file is written under a temporary name in ``out_dir`` and renamed
    into place only once all of them are written, the manifest last.  So a
    suite that fails to write (a value float32 cannot hold, a full disk)
    leaves the directory's files as they were; a failed rename can leave
    some renamed.  Either way no temporary file is left."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test, suite = generate(spec)
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
