import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cilbench import data
from cilbench.data import (
    _SAVE_ROWS,
    DataError,
    FeatureDataset,
    MemoryBuffer,
    OodEntry,
    OodSuite,
    RowView,
    herding_select,
    load_dataset,
    load_suite_manifest,
    ood_order,
    ood_subset,
    rebalance_memory,
    save_dataset,
    split_tasks,
    step_rows,
)
from cilbench.numerics import RngStream
from cilbench.synthgen import SynthSpec, generate, write_synth_suite
from oracles import subset


def make_ds(n_per_class, K, d, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_per_class * K, d))
    labels = np.repeat(np.arange(K), n_per_class)
    return FeatureDataset(feats, labels, K)


def arrays(part):
    """A (view, labels) pair as (float64 features, labels)."""
    return part[0].widen(), part[1]


def test_binary_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    ds = FeatureDataset(
        rng.normal(size=(3, 4)).astype(np.float32), [0, 1, 0], 2
    )
    p = tmp_path / "ds.bin"
    save_dataset(ds, p)
    back = load_dataset(p, 2)
    assert back.n == 3 and back.dim == 4
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    save_dataset(back, tmp_path / "ds2.bin")
    assert (tmp_path / "ds.bin").read_bytes() == (tmp_path / "ds2.bin").read_bytes()


def test_load_errors_are_distinct(tmp_path):
    good = FeatureDataset(np.ones((2, 2)), [0, 1], 2)
    p = tmp_path / "ok.bin"
    save_dataset(good, p)

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + p.read_bytes()[4:])
    with pytest.raises(DataError, match="bad magic, expected OCF1"):
        load_dataset(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(DataError, match=r"payload size mismatch \(37 != 40\)"):
        load_dataset(truncated)

    with pytest.raises(DataError, match=r"labels must lie in \[0, 1\)"):
        load_dataset(p, n_classes=1)  # file holds label 1

    with pytest.raises(DataError, match="missing.bin: No such file"):
        load_dataset(tmp_path / "missing.bin")

    with pytest.raises(DataError, match="labels must have one entry per row"):
        FeatureDataset(np.ones((2, 2)), [0, 1, 0], 2)  # one label too many


def test_nonfinite_feature_rejected():
    with pytest.raises(DataError, match="non-finite feature value"):
        FeatureDataset(np.array([[1.0, np.nan]]), [0], 1)


@pytest.mark.parametrize(
    "labels", [[0.7, 1.2], [0.0, 1.0], np.array([True, False]), np.array(["0", "1"])]
)
def test_non_integer_labels_are_rejected_not_truncated(labels):
    # float labels used to be truncated ([0.7, 1.2] -> [0, 1]) and bools
    # read as classes 1 and 0
    with pytest.raises(DataError, match="labels must be integers"):
        FeatureDataset(np.ones((2, 3)), labels)


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
def test_integer_labels_of_any_width_are_read_as_int64(dtype):
    ds = FeatureDataset(np.ones((3, 2)), np.array([2, 0, 1], dtype=dtype))
    assert ds.labels.dtype == np.int64 and ds.n_classes == 3
    np.testing.assert_array_equal(ds.labels, [2, 0, 1])


def test_split_tasks_even():
    tr = make_ds(5, 6, 3)
    te = make_ds(2, 6, 3, seed=1)
    stream = split_tasks(tr, te, 2)
    assert stream.num_steps == 3
    assert list(stream.classes) == [(0, 1), (2, 3), (4, 5)]
    for t, classes in enumerate(stream.classes, 1):
        assert set(np.unique(step_rows(stream, t, MemoryBuffer(0))[1])) == set(classes)


def test_split_tasks_remainder_and_disjoint():
    tr = make_ds(4, 7, 2)
    te = make_ds(2, 7, 2, seed=1)
    stream = split_tasks(tr, te, 3)
    sizes = [len(classes) for classes in stream.classes]
    assert sizes == [3, 3, 1]
    all_classes = [c for classes in stream.classes for c in classes]
    assert sorted(all_classes) == list(range(7))
    assert len(set(all_classes)) == 7


def test_split_tasks_k_checks():
    tr = make_ds(2, 4, 2)
    te = make_ds(1, 4, 2, seed=1)
    with pytest.raises(ValueError):
        split_tasks(tr, te, 5)
    with pytest.raises(ValueError):
        split_tasks(tr, te, 1)


def test_split_tasks_seeded_order_is_deterministic():
    tr = make_ds(3, 10, 2)
    te = make_ds(1, 10, 2, seed=1)
    s1 = split_tasks(tr, te, 5, RngStream(4, "order"))
    s2 = split_tasks(tr, te, 5, RngStream(4, "order"))
    assert s1.classes == s2.classes


def _per_task_oracle(tr, te, stream):
    """Each task's (train, test) as per-task subsets of the inputs."""
    for classes in stream.classes:
        yield [subset(ds, np.flatnonzero(np.isin(ds.labels, classes))) for ds in (tr, te)]


def _task_test(stream, t):
    """Task t's test (features, labels): the part of ``test_through(t)``
    past task t - 1."""
    x, y = arrays(stream.test_through(t))
    start = stream.test_bounds[t - 1]
    return x[start:], y[start:]


def test_split_tasks_class_sorted_input_is_not_copied():
    tr = make_ds(5, 7, 3)
    te = make_ds(2, 7, 3, seed=1)
    stream = split_tasks(tr, te, 3)
    for ds, x, y, order in ((tr, stream.train_x, stream.train_y, stream.train_order),
                            (te, stream.test_x, stream.test_y, stream.test_order)):
        assert np.shares_memory(x, ds.features) and np.shares_memory(y, ds.labels)
        # identity order on class-sorted rows: task by task is the rows' own order
        np.testing.assert_array_equal(order, np.arange(ds.n))
    for t in range(1, stream.num_steps + 1):
        assert step_rows(stream, t, MemoryBuffer(0))[0].storage is stream.train_x
        assert stream.test_through(t)[0].storage is stream.test_x


@pytest.mark.parametrize("layout", ["identity", "seeded", "shuffled"])
def test_split_tasks_copies_no_feature_row(layout):
    # float32 rows 64 wide: a copy of the features is 32 times the row
    # numbers of the task-by-task order
    tr, te = (FeatureDataset(ds.features.astype(np.float32), ds.labels, 10)
              for ds in (make_ds(400, 10, 64), make_ds(100, 10, 64, seed=1)))
    if layout == "shuffled":
        rng = np.random.default_rng(2)
        tr, te = (subset(ds, rng.permutation(ds.n)) for ds in (tr, te))
    order = RngStream(4, "order") if layout == "seeded" else None
    tracemalloc.start()
    try:
        stream = split_tasks(tr, te, 3, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tr.features.nbytes + te.features.nbytes) / 8
    for x, ds in ((stream.train_x, tr), (stream.test_x, te)):
        assert np.shares_memory(x, ds.features)
    for t in range(1, stream.num_steps + 1):
        assert np.shares_memory(step_rows(stream, t, MemoryBuffer(0))[0].storage, tr.features)
        assert np.shares_memory(stream.test_through(t)[0].storage, te.features)


@pytest.mark.parametrize("layout", ["seeded", "shuffled"])
def test_split_tasks_regroups_rows_like_per_task_subsets(layout):
    tr = make_ds(5, 7, 3)
    te = make_ds(2, 7, 3, seed=1)
    order = None
    if layout == "seeded":
        order = RngStream(4, "order")
    else:
        rng = np.random.default_rng(2)
        tr, te = (subset(ds, rng.permutation(ds.n)) for ds in (tr, te))
    stream = split_tasks(tr, te, 3, order)
    seen = []
    for t, oracle in enumerate(_per_task_oracle(tr, te, stream), 1):
        train_part, test_part = arrays(step_rows(stream, t, MemoryBuffer(0))), _task_test(stream, t)
        for part, want in zip((train_part, test_part), oracle):
            np.testing.assert_array_equal(part[0], want.features)
            np.testing.assert_array_equal(part[1], want.labels)
        seen.append(oracle[1])
        through_x, through_y = arrays(stream.test_through(t))
        np.testing.assert_array_equal(through_x, np.concatenate([s.features for s in seen]))
        np.testing.assert_array_equal(through_y, np.concatenate([s.labels for s in seen]))
        # each task is a slice of the input's order: its rows in input order
        for ds, order, bounds in ((tr, stream.train_order, stream.train_bounds),
                                  (te, stream.test_order, stream.test_bounds)):
            np.testing.assert_array_equal(
                order[bounds[t - 1] : bounds[t]],
                np.flatnonzero(np.isin(ds.labels, stream.classes[t - 1])),
            )


@settings(max_examples=80, deadline=None)
@given(
    layout=st.sampled_from(["class_sorted", "shuffled", "seeded"]),
    n_classes=st.integers(2, 9),
    k=st.integers(2, 9),
    n_train=st.integers(1, 4),
    n_test=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_stream_slices_are_read_only_views_of_the_per_task_rows(
    layout, n_classes, k, n_train, n_test, seed
):
    tr = make_ds(n_train, n_classes, 3, seed)
    te = make_ds(n_test, n_classes, 3, seed + 1)
    order = RngStream(seed, "order") if layout == "seeded" else None
    if layout == "shuffled":
        rng = np.random.default_rng(seed)
        tr, te = (subset(ds, rng.permutation(ds.n)) for ds in (tr, te))
    stream = split_tasks(tr, te, min(k, n_classes), order)
    for ds, x, y in ((tr, stream.train_x, stream.train_y), (te, stream.test_x, stream.test_y)):
        for array, own in ((x, ds.features), (y, ds.labels)):
            assert not array.flags.writeable and np.shares_memory(array, own)
    seen = []
    for t, (want_train, want_test) in enumerate(_per_task_oracle(tr, te, stream), 1):
        seen.append(want_test)
        want_through = [np.concatenate([s.features for s in seen]),
                        np.concatenate([s.labels for s in seen])]
        task = step_rows(stream, t, MemoryBuffer(0))
        for (view, labels), want, x in (
            (task, [want_train.features, want_train.labels], stream.train_x),
            (stream.test_through(t), want_through, stream.test_x),
        ):
            assert view.storage is x
            rows = view.widen()
            assert not rows.flags.writeable
            np.testing.assert_array_equal(rows, want[0], strict=True)
            np.testing.assert_array_equal(labels, want[1], strict=True)


def test_test_through_rejects_steps_outside_the_stream():
    stream = split_tasks(make_ds(3, 4, 2), make_ds(1, 4, 2, seed=1), 2)
    for t in (0, 3):
        with pytest.raises(ValueError, match="step index"):
            stream.test_through(t)


def test_step_rows_rejects_steps_outside_the_stream():
    stream = split_tasks(make_ds(3, 4, 2), make_ds(1, 4, 2, seed=1), 2)
    for t in (0, stream.num_steps + 1):
        with pytest.raises(ValueError, match="step index"):
            step_rows(stream, t, MemoryBuffer(0))


def test_task_views_are_read_only():
    tr = make_ds(5, 4, 3)
    te = make_ds(2, 4, 3, seed=1)
    stream = split_tasks(tr, te, 2)
    with pytest.raises(ValueError, match="read-only"):
        step_rows(stream, 1, MemoryBuffer(0))[0].widen()[0, 0] = 1.0
    # a step's labels are its own copy; the stream's arrays are read-only
    for array in (stream.test_y, stream.train_order, stream.test_order):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        stream.test_through(2)[0].widen()[0] += 1.0
    # the caller's arrays stay writable
    assert tr.features.flags.writeable and te.labels.flags.writeable


@pytest.mark.parametrize("order", [None, RngStream(4, "order")])
def test_rows_from_outside_are_checked_before_split_tasks_sees_them(order):
    tr = make_ds(5, 4, 3)
    te = make_ds(2, 4, 3, seed=1)
    stream = split_tasks(tr, te, 2, order)
    feats, labels = tr.features.copy(), tr.labels.copy()
    feats[7, 1] = np.inf
    with pytest.raises(DataError, match="non-finite feature value"):
        split_tasks(FeatureDataset(feats, labels, 4), te, 2, order)
    labels[3] = 4
    with pytest.raises(DataError, match=r"labels must lie in \[0, 4\)"):
        split_tasks(FeatureDataset(tr.features, labels, 4), te, 2, order)
    with pytest.raises(DataError, match=r"features must be a nonempty \(n, d\) matrix"):
        # an empty selection is still no dataset
        FeatureDataset(stream.train_x[[]], stream.train_y[[]], 4)


def test_save_dataset_writes_the_float32_and_int32_payload(tmp_path):
    ds = make_ds(_SAVE_ROWS + 3, 2, 3)  # spans three write blocks
    save_dataset(ds, tmp_path / "ds.bin")
    raw = (tmp_path / "ds.bin").read_bytes()
    assert raw[16:] == ds.features.astype("<f4").tobytes() + ds.labels.astype("<i4").tobytes()


def test_save_dataset_rejects_a_value_float32_cannot_hold(tmp_path):
    # it wrote inf with a RuntimeWarning, and load_dataset then rejected the file
    ds = make_ds(_SAVE_ROWS + 3, 2, 3)
    ds.features[_SAVE_ROWS + 1, 2] = -1e40  # in the second write block
    path = tmp_path / "ds.bin"
    with pytest.raises(DataError, match=re.escape(f"cannot write {path}: ") + "a feature value overflows float32"):
        save_dataset(ds, path)


def test_herding_picks_point_nearest_mean():
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    assert herding_select(feats, 1) == [2]  # mean is (1, 0)


def test_herding_matches_bruteforce_greedy():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        feats = rng.normal(size=(n, 3))
        q = int(rng.integers(1, n + 1))
        mu = feats.mean(axis=0)
        chosen = []
        running = np.zeros(3)
        for s in range(1, q + 1):
            best, best_d = None, np.inf
            for i in range(n):
                if i in chosen:
                    continue
                d = np.linalg.norm(mu - (running + feats[i]) / s)
                if d < best_d - 0.0 and (best is None or d < best_d):
                    best, best_d = i, d
            chosen.append(best)
            running += feats[best]
        assert herding_select(feats, q) == chosen


def test_herding_full_and_errors():
    feats = np.random.default_rng(1).normal(size=(4, 2))
    assert sorted(herding_select(feats, 4)) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        herding_select(feats, 0)
    with pytest.raises(ValueError):
        herding_select(feats, 5)


def test_herding_degenerate_ties_deterministic():
    feats = np.ones((5, 3))
    assert herding_select(feats, 2) == [0, 1]


def norm_loop_herding(feats, q):
    """herding_select before the reused buffer: np.linalg.norm per pick."""
    n = feats.shape[0]
    mu = feats.mean(axis=0)
    chosen = []
    running = np.zeros(feats.shape[1])
    taken = np.zeros(n, dtype=bool)
    for s in range(1, q + 1):
        dists = np.linalg.norm(mu - (running + feats) / s, axis=1)
        dists[taken] = np.inf
        i = int(np.argmin(dists))
        chosen.append(i)
        taken[i] = True
        running += feats[i]
    return chosen


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 6),
    distinct=st.integers(1, 40),
    grid=st.sampled_from([0.0, 0.5, 0.1]),
    seed=st.integers(0, 2**32 - 1),
    q_frac=st.floats(0.0, 1.0),
)
# two different squared distances whose square roots round to one value:
# comparing squared distances instead would pick another row here
@example(n=8, d=2, distinct=3, grid=0.0, seed=0, q_frac=1.0)
def test_herding_matches_norm_loop_at_random_tie_densities(n, d, distinct, grid, seed, q_frac):
    # rows drawn from a pool of `distinct` rows (duplicates tie exactly);
    # on a coarse grid, distinct rows also tie in distance
    gen = np.random.default_rng(seed)
    pool = gen.normal(size=(min(distinct, n), d)) * 3.0
    if grid:
        pool = np.round(pool / grid) * grid
    feats = pool[gen.integers(0, pool.shape[0], n)]
    q = max(1, round(q_frac * n))
    assert herding_select(feats, q) == norm_loop_herding(feats, q)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 300),
    distinct=st.integers(1, 60),
    grid=st.sampled_from([0.0, 1.0, 0.25]),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    seed=st.integers(0, 2**32 - 1),
    q_frac=st.floats(0.0, 1.0),
)
# q = n: the last pick has one row left
@example(n=30, d=300, distinct=30, grid=0.0, offset=1e6, seed=1, q_frac=1.0)
def test_herding_matches_norm_loop_on_wide_and_offset_rows(
    n, d, distinct, grid, offset, seed, q_frac
):
    # herding screens rows by ||x||^2 + 2 x.(running - s mu) before it
    # measures any distance.  Rows far from the origin make that sum cancel
    # (each term ~ s offset^2 for a distance ~ 1), and grid-rounded or
    # duplicated rows tie, so several rows pass the screen and are measured
    gen = np.random.default_rng(seed)
    pool = gen.normal(size=(min(distinct, n), d)) * 3.0
    if grid:
        pool = np.round(pool / grid) * grid
    feats = pool[gen.integers(0, pool.shape[0], n)] + offset
    q = max(1, round(q_frac * n))
    assert herding_select(feats, q) == norm_loop_herding(feats, q)


def test_herding_matches_norm_loop_on_a_scaled_class():
    # one class of the scaled benchmark shape (300 rows of dim 256) at the
    # first step's quota of 200 picks
    spec = SynthSpec(
        n_classes=4, dim=256, n_train_per_class=300, n_test_per_class=2,
        n_ood_per_set=2, seed=5,
    )
    train, _, _ = generate(spec)
    for c in (0, 1):
        feats = train.features[train.labels == c]
        assert herding_select(feats, 200) == norm_loop_herding(feats, 200)


def test_rebalance_quota_and_budget():
    tr = make_ds(50, 6, 4)
    te = make_ds(5, 6, 4, seed=1)
    stream = split_tasks(tr, te, 2)
    mem = MemoryBuffer(10)
    for t in range(1, 4):
        mem = rebalance_memory(mem, stream, t)
        seen = stream.classes_through(t)
        q = 10 // len(seen)
        assert sum(len(v) for v in mem.entries.values()) <= 10
        assert all(len(mem.entries[c]) == q for c in seen)
    # after 3 tasks: 6 classes, quota 1
    assert sum(len(v) for v in mem.entries.values()) == 6


def test_rebalance_benchmark_scale_quota():
    # budget 2000 across 20 seen classes: exactly 100 exemplars each
    tr = make_ds(120, 20, 4)
    te = make_ds(2, 20, 4, seed=1)
    stream = split_tasks(tr, te, 10)
    mem = rebalance_memory(MemoryBuffer(2000), stream, 2)
    assert all(len(v) == 100 for v in mem.entries.values())
    assert sum(len(v) for v in mem.entries.values()) == 2000


def test_rebalance_truncation_keeps_herding_prefix():
    tr = make_ds(40, 4, 3)
    te = make_ds(4, 4, 3, seed=1)
    stream = split_tasks(tr, te, 2)
    mem = rebalance_memory(MemoryBuffer(8), stream, 1)
    first = {c: list(v) for c, v in mem.entries.items()}
    mem2 = rebalance_memory(mem, stream, 2)
    for c in first:
        assert mem2.entries[c] == first[c][: len(mem2.entries[c])]


def test_step_rows_materialization():
    tr = make_ds(10, 6, 3)
    te = make_ds(2, 6, 3, seed=1)
    stream = split_tasks(tr, te, 2)
    mem = rebalance_memory(MemoryBuffer(8), stream, 2)
    task_x, task_y = arrays(step_rows(stream, 3, MemoryBuffer(0)))
    n = task_x.shape[0]
    X_all, y_all = arrays(step_rows(stream, 3, mem))
    # task 3's rows first, then the memory, class-ordered
    np.testing.assert_array_equal(X_all[:n], task_x)
    np.testing.assert_array_equal(y_all[:n], task_y)
    X, y = X_all[n:], y_all[n:]
    assert X.shape[0] == sum(len(v) for v in mem.entries.values()) == len(y)
    assert list(y) == sorted(y)
    for c in mem.entries:
        np.testing.assert_array_equal(
            X[y == c], stream.train_x[np.asarray(mem.entries[c])]
        )
        assert np.all(stream.train_y[mem.entries[c]] == c)


def test_step_rows_without_memory_is_the_task_itself():
    tr = make_ds(10, 4, 3)
    stream = split_tasks(tr, make_ds(2, 4, 3, seed=1), 2)
    task = subset(tr, np.flatnonzero(np.isin(tr.labels, stream.classes[1])))
    task_x, task_y = task.features, task.labels
    for mem in (MemoryBuffer(0), MemoryBuffer(8, {0: [], 1: []})):
        X, y = arrays(step_rows(stream, 2, mem))
        np.testing.assert_array_equal(X, task_x, strict=True)
        np.testing.assert_array_equal(y, task_y, strict=True)


def test_ood_subset_sizes_and_nesting():
    ds = make_ds(120, 5, 3)  # 600 rows
    order = ood_order(ds, RngStream(3, "ood"))
    sub2 = ood_subset(ds, 2, 5, order)
    assert sub2.shape == (240, 3)
    assert ood_subset(ds, 5, 5, order).shape[0] == 600
    sub1 = ood_subset(ds, 1, 5, order)
    np.testing.assert_array_equal(sub1.widen(), sub2.widen()[: sub1.shape[0]])
    with pytest.raises(ValueError):
        ood_subset(ds, 0, 5, order)
    with pytest.raises(ValueError):
        ood_subset(ds, 6, 5, order)


def test_ood_subset_ratio_constant_when_test_sizes_equal():
    ds = make_ds(100, 5, 3)  # 500 OOD rows
    order = ood_order(ds, RngStream(9, "ood"))
    per_task_test = 40
    ratios = []
    for t in range(1, 6):
        sub = ood_subset(ds, t, 5, order)
        ratios.append(sub.shape[0] / (t * per_task_test))
    assert max(ratios) - min(ratios) <= 1 / per_task_test  # within one sample


def test_suite_manifest_round_trip(tmp_path):
    tr = make_ds(4, 3, 2, seed=0)
    te = make_ds(2, 3, 2, seed=1)
    ood = make_ds(5, 1, 2, seed=2)
    save_dataset(tr, tmp_path / "train.bin")
    save_dataset(te, tmp_path / "test.bin")
    save_dataset(ood, tmp_path / "noise.bin")
    manifest = tmp_path / "suite.json"
    manifest.write_text(
        '{"n_classes": 3, "id_train": "train.bin", "id_test": "test.bin",'
        ' "ood": [{"name": "noise", "path": "noise.bin", "tag": "far"}]}'
    )
    train, test, suite = load_suite_manifest(manifest)
    assert train.n == 12 and test.n == 6
    assert suite.entries[0].name == "noise"
    assert suite.entries[0].tag == "far"


def write_small_suite(tmp_path, **top):
    """A 3-class suite with one far set ``noise``; ``top`` updates the manifest."""
    for name, ds in (("train", make_ds(4, 3, 2)), ("test", make_ds(2, 3, 2, seed=1)),
                     ("noise", make_ds(5, 1, 2, seed=2))):
        save_dataset(ds, tmp_path / f"{name}.bin")
    doc = {"n_classes": 3, "id_train": "train.bin", "id_test": "test.bin",
           "ood": [{"name": "noise", "path": "noise.bin", "tag": "far"}], **top}
    manifest = tmp_path / "suite.json"
    manifest.write_text(json.dumps(doc))
    return manifest


@pytest.mark.parametrize(
    "top, unknown",
    [
        # the typo ran, and the class count was inferred without a word
        ({"n_clases": 5}, "n_clases"),
        ({"ood": [{"name": "noise", "path": "noise.bin", "tag": "far", "tags": "near"}]},
         "ood[0].tags"),
    ],
)
def test_manifest_rejects_keys_it_does_not_know(tmp_path, top, unknown):
    with pytest.raises(DataError, match=rf"manifest has unknown keys: {re.escape(unknown)}$"):
        load_suite_manifest(write_small_suite(tmp_path, **top))
    # gen-synth writes synth_spec beside the sets
    assert load_suite_manifest(write_small_suite(tmp_path, synth_spec={"seed": 0}))[0].n == 12


def test_a_missing_manifest_field_names_its_entry(tmp_path):
    # a missing key in an OOD entry named the key alone, so a suite of six
    # sets had to be searched by hand for the entry lacking it
    ood = [{"name": f"noise{i}", "path": "noise.bin", "tag": "far"} for i in range(3)]
    del ood[2]["tag"]
    with pytest.raises(DataError, match=r"^manifest ood\[2\] missing field 'tag'$"):
        load_suite_manifest(write_small_suite(tmp_path, ood=ood))
    manifest = write_small_suite(tmp_path)
    doc = json.loads(manifest.read_text())
    del doc["id_test"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="^manifest missing field 'id_test'$"):
        load_suite_manifest(manifest)


@pytest.mark.parametrize("name", ["near,1", "near\n2", 'near"3', "far\r4"])
def test_ood_names_that_would_break_report_csv_are_rejected(tmp_path, name):
    # report.csv writes the name unquoted: "near,1" and "near\n2" gave rows
    # of 3, 8, 10 and 11 fields under a 10-field header
    with pytest.raises(DataError, match="holds a comma, quote, CR or LF"):
        OodEntry(name, make_ds(2, 1, 2), "near")
    manifest = write_small_suite(tmp_path, ood=[{"name": name, "path": "noise.bin", "tag": "far"}])
    with pytest.raises(DataError, match=re.escape(f"OOD set name {name!r}")):
        load_suite_manifest(manifest)


def test_an_unknown_ood_tag_names_its_set():
    # the message named the tag alone, so a manifest of six sets left the set unsaid
    with pytest.raises(DataError, match="^OOD set 'x': unknown OOD tag 'weird'$"):
        OodEntry("x", make_ds(2, 1, 2), "weird")


def test_manifest_class_count_above_the_id_train_rows_fails_before_counting(tmp_path):
    # an 8-row suite declaring a million classes: counting the rows of each
    # class first made a message naming the ~10^6 empty classes
    for name, ds in (("train", make_ds(1, 8, 2)), ("test", make_ds(1, 8, 2, seed=1)),
                     ("noise", make_ds(8, 1, 2, seed=2))):
        save_dataset(ds, tmp_path / f"{name}.bin")
    manifest = tmp_path / "suite.json"
    manifest.write_text(
        '{"n_classes": 1000000, "id_train": "train.bin", "id_test": "test.bin",'
        ' "ood": [{"name": "noise", "path": "noise.bin", "tag": "far"}]}'
    )
    with pytest.raises(DataError) as info:
        load_suite_manifest(manifest)
    message = str(info.value)
    assert len(message) < 200
    assert "1000000" in message and "8 rows" in message


def test_ood_subset_is_a_view_of_the_set_read_as_float64():
    ds = make_ds(20, 3, 4)
    order = ood_order(ds, RngStream(1, "ood"))
    sub = ood_subset(ds, 2, 3, order)
    # the view holds the set's own array and the row numbers, no row copy
    assert sub.shape == (40, 4) and sub.storage is ds.features
    np.testing.assert_array_equal(sub.index, order[:40])
    rows = sub.widen()
    assert rows.dtype == np.float64 and not rows.flags.writeable
    np.testing.assert_array_equal(rows, ds.features[order[:40]], strict=True)
    # a gathered copy: the dataset's rows stay the caller's
    assert not np.shares_memory(rows, ds.features) and ds.features.flags.writeable


def boundary_arrays(train, test, suite, order):
    """Per step of a run on the suite: the task's rows, test_through,
    step_rows and each OOD set's ood_subset, then the exemplars kept after
    the step."""
    stream = split_tasks(train, test, 3, order)
    mem, out = MemoryBuffer(24), []
    perms = [(e.dataset, ood_order(e.dataset, RngStream(0, e.name))) for e in suite.entries]
    for t in range(1, stream.num_steps + 1):
        out += [*arrays(step_rows(stream, t, MemoryBuffer(0))), *arrays(stream.test_through(t))]
        out += [*arrays(step_rows(stream, t, mem))]
        out += [ood_subset(ds, t, stream.num_steps, perm).widen() for ds, perm in perms]
        mem = rebalance_memory(mem, stream, t)
        out.append(mem.entries)
    return out


def widened(ds):
    return FeatureDataset(ds.features.astype(np.float64), ds.labels, ds.n_classes)


@pytest.mark.parametrize("order", [None, RngStream(5, "order")], ids=["identity", "seeded"])
def test_a_manifest_suite_is_held_as_float32_and_read_as_float64(tmp_path, order):
    spec = SynthSpec(n_classes=8, dim=16, n_train_per_class=30, n_test_per_class=10,
                     n_ood_per_set=40, seed=3)
    train, test, suite = load_suite_manifest(write_synth_suite(spec, tmp_path))
    for ds in (train, test, *(e.dataset for e in suite.entries)):
        assert ds.features.dtype == np.float32 and not ds.features.flags.writeable
    got = boundary_arrays(train, test, suite, order)
    for a in got:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            assert a.dtype == np.float64
    # the same arrays and exemplar picks as on the suite widened before the run
    wide_ood = OodSuite(tuple(OodEntry(e.name, widened(e.dataset), e.tag) for e in suite.entries))
    want = boundary_arrays(widened(train), widened(test), wide_ood, order)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, dict):
            assert a == b
        else:
            np.testing.assert_array_equal(a, b, strict=True)


def test_a_float64_suite_passes_the_boundary_as_views():
    train, test, _ = generate(SynthSpec(n_classes=8, dim=16, n_train_per_class=30,
                                        n_test_per_class=10, n_ood_per_set=40, seed=3))
    assert train.features.dtype == np.float64
    stream = split_tasks(train, test, 3)
    for x, ds in ((stream.train_x, train), (stream.test_x, test)):
        # the stream holds the suite's own rows, and a view reads them as float64
        assert np.shares_memory(x, ds.features)
        rows = RowView.of(x).read(slice(5, 40))
        assert rows.dtype == np.float64


def test_load_suite_manifest_holds_a_suite_at_its_stored_size(tmp_path):
    # the scaled suite's width (dim 256) at a few MB; it held the suite as
    # float64, twice its files' bytes
    spec = SynthSpec(n_classes=10, dim=256, n_train_per_class=100, n_test_per_class=20,
                     n_ood_per_set=500, seed=0)
    manifest = write_synth_suite(spec, tmp_path)
    stored = sum(p.stat().st_size for p in tmp_path.glob("*.bin"))
    tracemalloc.start()
    try:
        loaded = load_suite_manifest(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded[0].n == 1000
    assert peak <= 1.2 * stored


def test_ood_suite_validation():
    ds = make_ds(2, 1, 2)
    with pytest.raises(Exception):
        OodEntry("x", ds, "weird")
    with pytest.raises(Exception):
        OodSuite((OodEntry("a", ds, "near"), OodEntry("a", ds, "far")))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("indexed", [False, True], ids=["all_rows", "indexed"])
def test_a_row_view_reads_float64_slices_of_its_storage(monkeypatch, dtype, indexed):
    monkeypatch.setattr(data, "_SLICE_CELLS", 24)  # 3 rows of 8 per slice
    gen = np.random.default_rng(6)
    storage = gen.normal(size=(50, 8)).astype(dtype)
    view = RowView(storage, gen.permutation(50)[:37]) if indexed else RowView.of(storage)
    want = storage[view.index].astype(np.float64)
    assert view.shape == want.shape and RowView.of(view) is view
    parts = list(view.slices())
    assert parts == [slice(i, min(i + 3, 37 if indexed else 50)) for i in range(0, want.shape[0], 3)]
    for part in parts:
        rows = view.read(part)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, want[part], strict=True)
    picks = np.array([5, 0, 5, 2])
    np.testing.assert_array_equal(view.read(picks), want[picks], strict=True)
    whole = view.widen()
    np.testing.assert_array_equal(whole, want, strict=True)
    assert not whole.flags.writeable and not np.shares_memory(whole, storage)
