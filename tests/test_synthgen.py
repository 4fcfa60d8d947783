import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cilbench import synthgen
from cilbench.data import load_suite_manifest, save_dataset
from cilbench.synthgen import SynthSpec, generate, write_synth_suite
from oracles import synth_generate

SMALL = SynthSpec(
    n_classes=6,
    dim=12,
    n_train_per_class=40,
    n_test_per_class=10,
    n_ood_per_set=50,
    seed=3,
)


def test_same_seed_is_byte_identical():
    a_train, a_test, a_suite = generate(SMALL)
    b_train, b_test, b_suite = generate(SMALL)
    assert a_train.features.tobytes() == b_train.features.tobytes()
    assert a_test.labels.tobytes() == b_test.labels.tobytes()
    for ea, eb in zip(a_suite.entries, b_suite.entries):
        assert ea.dataset.features.tobytes() == eb.dataset.features.tobytes()


def test_shapes_and_tags():
    train, test, suite = generate(SMALL)
    assert train.n == 6 * 40 and test.n == 6 * 10
    assert train.dim == 12
    tags = [e.tag for e in suite.entries]
    assert tags.count("near") == 2 and tags.count("far") == 2


def test_generate_holds_the_suite_about_once():
    # the scaled suite's proportions (100 classes, dim 256, 300/50 rows per
    # class, 5000 per OOD set) at a tenth of the rows
    spec = SynthSpec(n_classes=100, dim=256, n_train_per_class=30, n_test_per_class=5,
                     n_ood_per_set=500, seed=0)
    tracemalloc.start()
    try:
        train, test, suite = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sets = [train, test] + [e.dataset for e in suite.entries]
    returned = sum(ds.features.nbytes + ds.labels.nbytes for ds in sets)
    assert peak < 1.5 * returned
    np.testing.assert_array_equal(train.labels, np.repeat(np.arange(100), 30))
    np.testing.assert_array_equal(test.labels, np.repeat(np.arange(100), 5))


def suite_bytes(train, test, suite):
    """Every byte of a generated suite, with the OOD sets' names and tags."""
    return (
        [ds.features.tobytes() + ds.labels.tobytes() for ds in (train, test)]
        + [(e.name, e.tag, e.dataset.features.tobytes()) for e in suite.entries]
    )


def force_workers(monkeypatch, workers, values_per_worker=1):
    """Let generate run its tasks on up to ``workers`` threads, one per
    ``values_per_worker`` values (by default however small the suite);
    return the list of pool sizes it opens."""
    pools = []

    class SpyPool(synthgen.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(synthgen, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(synthgen, "usable_cores", lambda: workers)
    monkeypatch.setattr(synthgen, "_VALUES_PER_WORKER", values_per_worker)
    return pools


# 12 columns hold _CHUNK_CELLS // 12 = 1365 rows per chunk, so 3001 OOD rows
# span three chunks, the last one ragged
ORACLE_SPECS = [
    SMALL,  # reserved far axes: 12 - 2 > 6
    SynthSpec(n_classes=10, dim=12, n_train_per_class=7, n_test_per_class=3,
              n_ood_per_set=3001, seed=1),  # no reserved axes: 12 - 2 = 10
    SynthSpec(n_classes=4, dim=12, n_train_per_class=9, n_test_per_class=2,
              n_ood_per_set=3001, n_near_sets=0, n_far_sets=3, seed=2),
    SynthSpec(n_classes=4, dim=5, n_train_per_class=9, n_test_per_class=2,
              n_ood_per_set=3001, n_near_sets=0, n_far_sets=3, seed=5),  # none reserved
    SynthSpec(n_classes=4, dim=12, n_train_per_class=5, n_test_per_class=5,
              n_ood_per_set=3001, n_near_sets=3, n_far_sets=0, seed=4),
    SynthSpec(n_classes=7, dim=3000, n_train_per_class=3, n_test_per_class=1,
              n_ood_per_set=7, n_near_sets=1, n_far_sets=1, seed=6),  # 5 rows per chunk
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"K{s.n_classes}-d{s.dim}-s{s.seed}")
def test_generate_gives_the_serial_oracle_bytes(monkeypatch, spec, workers):
    pools = force_workers(monkeypatch, workers)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        got = suite_bytes(*generate(spec))
    finally:
        sys.setswitchinterval(switch)
    assert pools == ([2] if workers == 2 else [])
    assert got == suite_bytes(*synth_generate(spec))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"K{s.n_classes}-d{s.dim}-s{s.seed}")
def test_a_float32_suite_is_the_serial_oracle_cast_to_float32(monkeypatch, spec, workers):
    pools = force_workers(monkeypatch, workers)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers and this thread as often as possible
    try:
        train, test, suite = generate(spec, np.float32)
    finally:
        sys.setswitchinterval(switch)
    assert pools == ([2] if workers == 2 else [])
    want_train, want_test, want_suite = synth_generate(spec)
    got = [train, test] + [e.dataset for e in suite.entries]
    want = [want_train, want_test] + [e.dataset for e in want_suite.entries]
    for ds, oracle in zip(got, want, strict=True):
        assert ds.features.dtype == np.float32
        assert ds.features.tobytes() == oracle.features.astype(np.float32).tobytes()
        assert ds.labels.tobytes() == oracle.labels.tobytes()
    assert [(e.name, e.tag) for e in suite.entries] == [(e.name, e.tag) for e in want_suite.entries]


def test_write_synth_suite_holds_the_suite_about_once(tmp_path):
    # the proportions of test_generate_holds_the_suite_about_once: drawn in
    # float64 and written block by block, the suite peaked at 2.81 times its
    # files; drawn in float32 beside at most 1.4 float64 sets, 1.32 times
    spec = SynthSpec(n_classes=100, dim=256, n_train_per_class=30, n_test_per_class=5,
                     n_ood_per_set=500, seed=0)
    write_synth_suite(SMALL, tmp_path / "warm")  # first-call allocations stay out
    tracemalloc.start()
    try:
        write_synth_suite(spec, tmp_path / "suite")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(p.stat().st_size for p in (tmp_path / "suite").glob("*.bin"))
    assert peak < 1.5 * stored


def test_a_small_suite_is_drawn_without_a_pool(monkeypatch):
    # the shipped spec's 224,000 values of classes and near sets are under
    # one worker's share, so its many small warm-up runs pay nothing for a pool
    pools = force_workers(monkeypatch, 2, synthgen._VALUES_PER_WORKER)
    spec_path = Path(__file__).resolve().parent.parent / "configs" / "example_synth_spec.json"
    generate(SynthSpec.from_dict(json.loads(spec_path.read_text())))
    assert pools == []


def test_written_suite_has_the_serial_oracle_bytes(tmp_path, monkeypatch):
    force_workers(monkeypatch, 2)
    spec = ORACLE_SPECS[1]
    write_synth_suite(spec, tmp_path / "suite")
    train, test, suite = synth_generate(spec)
    names = {"id_train.bin": train, "id_test.bin": test}
    names.update({f"ood_{e.name}.bin": e.dataset for e in suite.entries})
    for name, ds in names.items():
        save_dataset(ds, tmp_path / name)
        assert (tmp_path / "suite" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "suite").glob("*.bin")) == sorted(names)


def test_generate_peaks_no_higher_than_the_serial_oracle():
    # the proportions of test_generate_holds_the_suite_about_once
    spec = SynthSpec(n_classes=100, dim=256, n_train_per_class=30, n_test_per_class=5,
                     n_ood_per_set=500, seed=0)
    peaks = {}
    for name, fn in (("generate", generate), ("oracle", synth_generate)):
        tracemalloc.start()
        try:
            fn(spec)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["generate"] <= peaks["oracle"]


def test_empirical_class_means_close():
    spec = SynthSpec(
        n_classes=5, dim=8, n_train_per_class=400, n_test_per_class=10,
        n_ood_per_set=10, seed=1,
    )
    train, _, _ = generate(spec)
    # reproduce the mean layout from the same substream
    from cilbench.numerics import RngStream
    from cilbench.synthgen import _class_means

    means = _class_means(spec, RngStream(spec.seed, "synthgen"))
    for c in range(5):
        emp = train.features[train.labels == c].mean(axis=0)
        tol = 3 * spec.std / np.sqrt(400)
        assert np.all(np.abs(emp - means[c]) < 4 * tol)


def test_far_rows_lie_far_from_all_class_means():
    train, _, suite = generate(SMALL)
    from cilbench.numerics import RngStream
    from cilbench.synthgen import _class_means

    means = _class_means(SMALL, RngStream(SMALL.seed, "synthgen"))
    for entry in suite.entries:
        if entry.tag != "far":
            continue
        rows = entry.dataset.features
        d2 = ((rows[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.sqrt(d2).min() > 0.9 * SMALL.far_radius


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_classes=3)
    with pytest.raises(ValueError):
        SynthSpec(std=0.0)
    with pytest.raises(ValueError):
        SynthSpec.from_dict({"bogus": 1})
    # RngStream reads seeds modulo 2^64: one outside [0, 2^64) aliases another
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            SynthSpec(seed=seed)
    SynthSpec(seed=2**64 - 1)


def test_vanishing_noise_makes_one_task_separable():
    from cilbench.cil import CilConfig, CilModel, evaluate_accuracy, train_task
    from cilbench.data import MemoryBuffer, split_tasks
    from cilbench.numerics import RngStream

    spec = SynthSpec(
        n_classes=6, dim=12, n_train_per_class=30, n_test_per_class=10,
        n_ood_per_set=20, std=1e-6, seed=0,
    )
    train, test, _ = generate(spec)
    stream = split_tasks(train, test, 6)  # all classes in one task
    model = CilModel.fresh(spec.dim)
    cfg = CilConfig(epochs_per_task=10)
    model, _ = train_task(model, stream, 1, MemoryBuffer(0), cfg, RngStream(0, "s0"))
    assert evaluate_accuracy(model, *stream.test_through(1)) == 1.0


def test_small_noise_far_sets_are_trivially_detectable():
    from cilbench.cil import CilConfig, CilModel, train_task
    from cilbench.data import MemoryBuffer, ood_order, ood_subset, split_tasks
    from cilbench.metrics import auroc
    from cilbench.numerics import RngStream
    from cilbench.posthoc import score_batch

    aucs = []
    for seed in range(5):
        spec = SynthSpec(std=0.2, seed=seed)
        train, test, suite = generate(spec)
        stream = split_tasks(train, test, 4)
        model = CilModel.fresh(spec.dim)
        model, _ = train_task(
            model, stream, 1, MemoryBuffer(200), CilConfig(), RngStream(seed, "ss")
        )
        id_s = score_batch("energy", model, None, stream.test_through(1)[0])
        far = [
            auroc(
                id_s,
                score_batch(
                    "energy", model, None,
                    ood_subset(
                        e.dataset, 1, 5, ood_order(e.dataset, RngStream(seed, f"f/{e.name}"))
                    ),
                ),
            )
            for e in suite.entries
            if e.tag == "far"
        ]
        aucs.append(np.mean(far))
    assert np.mean(aucs) > 0.99


def test_write_suite_round_trips(tmp_path):
    path = write_synth_suite(SMALL, tmp_path / "suite")
    train, test, suite = load_suite_manifest(path)
    direct_train, direct_test, direct_suite = generate(SMALL)
    # float32 storage quantizes, so compare at storage precision
    np.testing.assert_allclose(
        train.features, direct_train.features, atol=1e-4, rtol=1e-5
    )
    np.testing.assert_array_equal(train.labels, direct_train.labels)
    assert [e.name for e in suite.entries] == [e.name for e in direct_suite.entries]
    doc = json.loads(path.read_text())
    assert doc["synth_spec"]["n_classes"] == 6
