import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cilbench.data import (
    _SAVE_ROWS,
    DimensionMismatchError,
    FeatureDataset,
    FormatError,
    LabelOutOfRangeError,
    MemoryBuffer,
    NonFiniteFeatureError,
    OodEntry,
    OodSuite,
    herding_select,
    load_dataset,
    load_suite_manifest,
    ood_subset,
    rebalance_memory,
    save_dataset,
    split_tasks,
    step_rows,
)
from cilbench.numerics import RngStream
from cilbench.synthgen import SynthSpec, generate


def make_ds(n_per_class, K, d, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_per_class * K, d))
    labels = np.repeat(np.arange(K), n_per_class)
    return FeatureDataset(feats, labels, K)


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
    with pytest.raises(FormatError):
        load_dataset(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_dataset(truncated)

    with pytest.raises(LabelOutOfRangeError):
        load_dataset(p, n_classes=1)  # file holds label 1

    with pytest.raises(FormatError):
        load_dataset(tmp_path / "missing.bin")

    with pytest.raises(DimensionMismatchError):
        FeatureDataset(np.ones((2, 2)), [0, 1, 0], 2)  # one label too many


def test_nonfinite_feature_rejected():
    with pytest.raises(NonFiniteFeatureError):
        FeatureDataset(np.array([[1.0, np.nan]]), [0], 1)


def test_split_tasks_even():
    tr = make_ds(5, 6, 3)
    te = make_ds(2, 6, 3, seed=1)
    stream = split_tasks(tr, te, 2)
    assert stream.num_steps == 3
    assert [t.classes for t in stream.tasks] == [(0, 1), (2, 3), (4, 5)]
    for task in stream.tasks:
        assert set(np.unique(task.train.labels)) == set(task.classes)


def test_split_tasks_remainder_and_disjoint():
    tr = make_ds(4, 7, 2)
    te = make_ds(2, 7, 2, seed=1)
    stream = split_tasks(tr, te, 3)
    sizes = [len(t.classes) for t in stream.tasks]
    assert sizes == [3, 3, 1]
    all_classes = [c for t in stream.tasks for c in t.classes]
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
    assert [t.classes for t in s1.tasks] == [t.classes for t in s2.tasks]


def _per_task_oracle(tr, te, stream):
    """Each task's (train, test) as per-task subsets of the inputs."""
    for task in stream.tasks:
        yield [ds.subset(np.flatnonzero(np.isin(ds.labels, task.classes))) for ds in (tr, te)]


def test_split_tasks_class_sorted_input_is_not_copied():
    tr = make_ds(5, 7, 3)
    te = make_ds(2, 7, 3, seed=1)
    stream = split_tasks(tr, te, 3)
    for task in stream.tasks:
        for part, ds in ((task.train, tr), (task.test, te)):
            assert np.shares_memory(part.features, ds.features)
            assert np.shares_memory(part.labels, ds.labels)
    for t in range(1, stream.num_steps + 1):
        assert np.shares_memory(stream.test_through(t).features, stream.tasks[0].test.features)


@pytest.mark.parametrize("layout", ["seeded", "shuffled"])
def test_split_tasks_regroups_rows_like_per_task_subsets(layout):
    tr = make_ds(5, 7, 3)
    te = make_ds(2, 7, 3, seed=1)
    order = None
    if layout == "seeded":
        order = RngStream(4, "order")
    else:
        rng = np.random.default_rng(2)
        tr, te = (ds.subset(rng.permutation(ds.n)) for ds in (tr, te))
    stream = split_tasks(tr, te, 3, order)
    seen = []
    for t, (task, oracle) in enumerate(zip(stream.tasks, _per_task_oracle(tr, te, stream)), 1):
        for part, want in zip((task.train, task.test), oracle):
            np.testing.assert_array_equal(part.features, want.features)
            np.testing.assert_array_equal(part.labels, want.labels)
        seen.append(oracle[1])
        through = stream.test_through(t)
        np.testing.assert_array_equal(through.features, np.concatenate([s.features for s in seen]))
        np.testing.assert_array_equal(through.labels, np.concatenate([s.labels for s in seen]))
        # one gather per input: the tasks are views of it, not of the input
        assert np.shares_memory(task.test.features, stream.test.features)
        assert not np.shares_memory(task.train.features, tr.features)


def test_test_through_rejects_steps_outside_the_stream():
    stream = split_tasks(make_ds(3, 4, 2), make_ds(1, 4, 2, seed=1), 2)
    for t in (0, 3):
        with pytest.raises(ValueError, match="step index"):
            stream.test_through(t)


def test_task_views_are_read_only():
    tr = make_ds(5, 4, 3)
    te = make_ds(2, 4, 3, seed=1)
    stream = split_tasks(tr, te, 2)
    with pytest.raises(ValueError, match="read-only"):
        stream.tasks[0].train.features[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        stream.tasks[1].test.labels[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        stream.test_through(2).features[0] += 1.0
    # the caller's arrays stay writable
    assert tr.features.flags.writeable and te.labels.flags.writeable


@pytest.mark.parametrize("order", [None, RngStream(4, "order")])
def test_rows_are_checked_once_where_they_enter(monkeypatch, order):
    tr = make_ds(5, 4, 3)
    te = make_ds(2, 4, 3, seed=1)
    checked = []
    check = FeatureDataset.__post_init__
    monkeypatch.setattr(
        FeatureDataset, "__post_init__", lambda ds: (checked.append(ds.n), check(ds))[1]
    )
    # views and gathers of checked rows are not checked again
    stream = split_tasks(tr, te, 2, order)
    stream.test_through(2)
    stream.train.subset([3, 1])
    ood_subset(tr, 1, 2, RngStream(0, "sub"))
    assert checked == []
    # rows from outside still are, before split_tasks sees them
    feats, labels = tr.features.copy(), tr.labels.copy()
    feats[7, 1] = np.inf
    with pytest.raises(NonFiniteFeatureError):
        split_tasks(FeatureDataset(feats, labels, 4), te, 2, order)
    labels[3] = 4
    with pytest.raises(LabelOutOfRangeError):
        split_tasks(FeatureDataset(tr.features, labels, 4), te, 2, order)
    assert checked == [tr.n, tr.n]
    with pytest.raises(FormatError):
        stream.train.subset([])  # an empty selection is still no dataset


def test_save_dataset_writes_the_float32_and_int32_payload(tmp_path):
    ds = make_ds(_SAVE_ROWS + 3, 2, 3)  # spans three write blocks
    save_dataset(ds, tmp_path / "ds.bin")
    raw = (tmp_path / "ds.bin").read_bytes()
    assert raw[16:] == ds.features.astype("<f4").tobytes() + ds.labels.astype("<i4").tobytes()


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
    task = stream.tasks[2].train
    X_all, y_all = step_rows(stream, 3, mem)
    # task 3's rows first, then the memory, class-ordered
    np.testing.assert_array_equal(X_all[: task.n], task.features)
    np.testing.assert_array_equal(y_all[: task.n], task.labels)
    X, y = X_all[task.n :], y_all[task.n :]
    assert X.shape[0] == sum(len(v) for v in mem.entries.values()) == len(y)
    assert list(y) == sorted(y)
    for c in mem.entries:
        np.testing.assert_array_equal(
            X[y == c], stream.train.features[np.asarray(mem.entries[c])]
        )
        assert np.all(stream.train.labels[mem.entries[c]] == c)


def test_step_rows_without_memory_is_the_task_itself():
    stream = split_tasks(make_ds(10, 4, 3), make_ds(2, 4, 3, seed=1), 2)
    task = stream.tasks[1].train
    for mem in (MemoryBuffer(0), MemoryBuffer(8, {0: [], 1: []})):
        X, y = step_rows(stream, 2, mem)
        assert X is task.features and y is task.labels


def test_ood_subset_sizes_and_nesting():
    ds = make_ds(120, 5, 3)  # 600 rows
    rng = RngStream(3, "ood")
    sub2 = ood_subset(ds, 2, 5, rng)
    assert sub2.n == 240
    assert ood_subset(ds, 5, 5, rng).n == 600
    sub1 = ood_subset(ds, 1, 5, rng)
    np.testing.assert_array_equal(sub1.features, sub2.features[: sub1.n])
    with pytest.raises(ValueError):
        ood_subset(ds, 0, 5, rng)
    with pytest.raises(ValueError):
        ood_subset(ds, 6, 5, rng)


def test_ood_subset_ratio_constant_when_test_sizes_equal():
    ds = make_ds(100, 5, 3)  # 500 OOD rows
    rng = RngStream(9, "ood")
    per_task_test = 40
    ratios = []
    for t in range(1, 6):
        sub = ood_subset(ds, t, 5, rng)
        ratios.append(sub.n / (t * per_task_test))
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


def test_ood_suite_validation():
    ds = make_ds(2, 1, 2)
    with pytest.raises(Exception):
        OodEntry("x", ds, "weird")
    with pytest.raises(Exception):
        OodSuite((OodEntry("a", ds, "near"), OodEntry("a", ds, "far")))
