import json
import tracemalloc

import numpy as np
import pytest

from cilbench.data import load_suite_manifest
from cilbench.synthgen import SynthSpec, generate, write_synth_suite

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
    from cilbench.data import MemoryBuffer, ood_subset, split_tasks
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
                    ood_subset(e.dataset, 1, 5, RngStream(seed, f"f/{e.name}")),
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
