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
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .configcheck import check_field_types, parse_section
from .data import FeatureDataset, OodEntry, OodSuite, save_dataset
from .numerics import RngStream

__all__ = ["SynthSpec", "generate", "write_synth_suite"]


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


def _unit_rows(gen, n, d):
    g = gen.normal(size=(n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _reserved_axes(spec: SynthSpec) -> int:
    """How many trailing coordinates are reserved for the far-OOD axes:
    ``n_far_sets`` when the other coordinates outnumber the classes, else 0."""
    return spec.n_far_sets if spec.dim - spec.n_far_sets > spec.n_classes else 0


def _class_means(spec: SynthSpec, rng: RngStream) -> np.ndarray:
    """Class means at the given radius, zero on the reserved far-OOD axes
    (see :func:`_reserved_axes`)."""
    d = spec.dim
    reserved = _reserved_axes(spec)
    dirs = np.zeros((spec.n_classes, d))
    dirs[:, : d - reserved] = _unit_rows(
        rng.child("class-means").gen, spec.n_classes, d - reserved
    )
    return spec.mean_radius * dirs


def _project_off(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove the component of each row lying in span(basis rows)."""
    q, _ = np.linalg.qr(basis.T, mode="reduced")
    return rows - (rows @ q) @ q.T


def generate(spec: SynthSpec) -> tuple[FeatureDataset, FeatureDataset, OodSuite]:
    """Deterministic (train, test, ood suite) for the given spec."""
    rng = RngStream(spec.seed, "synthgen")
    means = _class_means(spec, rng)
    K, d = spec.n_classes, spec.dim

    # each class writes its block straight into the returned arrays, so the
    # suite is never held twice
    n_tr, n_te = spec.n_train_per_class, spec.n_test_per_class
    train_x = np.empty((K * n_tr, d))
    test_x = np.empty((K * n_te, d))
    for c in range(K):
        gen = rng.child(f"class{c}").gen
        rows = means[c] + spec.std * gen.normal(size=(n_tr + n_te, d))
        train_x[c * n_tr : (c + 1) * n_tr] = rows[:n_tr]
        test_x[c * n_te : (c + 1) * n_te] = rows[n_tr:]
    classes = np.arange(K, dtype=np.int64)
    train = FeatureDataset(train_x, np.repeat(classes, n_tr), K)
    test = FeatureDataset(test_x, np.repeat(classes, n_te), K)

    entries = []
    for s in range(spec.n_near_sets):
        gen = rng.child(f"near{s}").gen
        i = gen.integers(0, K, spec.n_ood_per_set)
        off = 1 + gen.integers(0, K - 1, spec.n_ood_per_set)
        j = (i + off) % K  # guaranteed distinct pair
        mids = 0.5 * (means[i] + means[j])
        rows = (
            mids
            + spec.near_jitter * gen.normal(size=(spec.n_ood_per_set, d))
            + spec.std * gen.normal(size=(spec.n_ood_per_set, d))
        )
        entries.append(
            OodEntry(f"near{s + 1}", FeatureDataset(rows, np.zeros(len(rows), np.int64), 1), "near")
        )

    reserved = _reserved_axes(spec)
    for s in range(spec.n_far_sets):
        gen = rng.child(f"far{s}").gen
        noise = spec.std * gen.normal(size=(spec.n_ood_per_set, d))
        if reserved:
            axis = np.zeros(d)
            axis[d - reserved + s] = 1.0
            rows = spec.far_radius * axis + _project_off(noise, means)
        else:  # no reserved axes: random shell directions
            rows = spec.far_radius * _unit_rows(gen, spec.n_ood_per_set, d) + noise
        entries.append(
            OodEntry(f"far{s + 1}", FeatureDataset(rows, np.zeros(len(rows), np.int64), 1), "far")
        )
    return train, test, OodSuite(tuple(entries))


def write_synth_suite(spec: SynthSpec, out_dir) -> Path:
    """Generate and write binary datasets plus a suite manifest JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test, suite = generate(spec)
    save_dataset(train, out / "id_train.bin")
    save_dataset(test, out / "id_test.bin")
    ood_docs = []
    for entry in suite.entries:
        fname = f"ood_{entry.name}.bin"
        save_dataset(entry.dataset, out / fname)
        ood_docs.append({"name": entry.name, "path": fname, "tag": entry.tag})
    manifest = {
        "n_classes": spec.n_classes,
        "id_train": "id_train.bin",
        "id_test": "id_test.bin",
        "ood": ood_docs,
        "synth_spec": spec.to_dict(),
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
