import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cilbench import posthoc
from cilbench.cil import CilModel
from cilbench.data import FeatureDataset, RowView, ood_order, ood_subset
from cilbench.model import LinearHead
from cilbench.numerics import RngStream, l2_rows, logsumexp_rows
from cilbench.posthoc import (
    SCORER_NAMES,
    PosthocParams,
    ScorerFit,
    fit_scorer,
    odin_input_gradient,
    percentile_nearest_rank,
    score_batch,
)
from oracles import logsumexp, softmax

P = PosthocParams()


def score_one(name, model, fit, x, params=None):
    """The score of one feature vector, through the batch scorer."""
    return float(score_batch(name, model, fit, np.asarray(x)[None, :], params)[0])


def logit_model(W, b):
    """Identity-extractor model whose logits equal W x + b."""
    head = LinearHead(np.asarray(W, float), np.asarray(b, float))
    return CilModel(head)


def passthrough(logits):
    """Model whose logits on the canonical basis arrangement are fixed:
    uses identity weights so x IS the logit vector."""
    C = len(logits)
    return logit_model(np.eye(C), np.zeros(C)), np.asarray(logits, float)


def test_msp_examples():
    model, x = passthrough([0.0, 0.0])
    assert score_one("msp", model, None, x) == pytest.approx(0.5, abs=1e-12)
    model, x = passthrough([10.0, 0.0])
    assert score_one("msp", model, None, x) == pytest.approx(
        math.exp(10) / (math.exp(10) + 1), abs=1e-9
    )
    model, x = passthrough([1.3, -0.4, 2.2])
    shifted_model = logit_model(np.eye(3), np.full(3, 7.0))
    assert score_one("msp", model, None, x) == pytest.approx(
        score_one("msp", shifted_model, None, x), abs=1e-12
    )


def test_maxlogit_examples():
    model, x = passthrough([3.0, -1.0])
    assert score_one("maxlogit", model, None, x) == 3.0
    shifted = logit_model(np.eye(2), np.full(2, 5.0))
    assert score_one("maxlogit", shifted, None, x) == 8.0
    gen = np.random.default_rng(0)
    for _ in range(20):
        v = gen.normal(size=4)
        model, x = passthrough(v)
        assert score_one("maxlogit", model, None, x) == max(v)


def test_energy_examples():
    model, x = passthrough([0.0, 0.0])
    assert score_one("energy", model, None, x) == pytest.approx(math.log(2), abs=1e-12)
    single = logit_model(np.array([[1.0]]), np.zeros(1))
    assert score_one("energy", single, None, np.array([4.2])) == pytest.approx(4.2, abs=1e-12)
    model, x = passthrough([1.0, 2.0, 3.0])
    assert score_one("energy", model, None, x) == pytest.approx(
        logsumexp([1.0, 2.0, 3.0], 1.0), abs=1e-12
    )


def test_gen_examples():
    # sharp distribution scores near zero (the maximum)
    model, x = passthrough([200.0, 0.0])
    assert score_one("gen", model, None, x) == pytest.approx(0.0, abs=1e-8)
    model, x = passthrough([0.0, 0.0])
    assert score_one("gen", model, None, x) == pytest.approx(
        -2.0 * 0.5**0.2, abs=1e-12
    )  # frozen: -1.7411011265922483
    # sharpening along a one-parameter family increases the score
    scores = []
    for a in np.linspace(0.0, 5.0, 11):
        model, x = passthrough([a, -a])
        scores.append(score_one("gen", model, None, x))
    assert all(s2 > s1 for s1, s2 in zip(scores, scores[1:]))


def test_odin_degenerate_equals_msp():
    gen = np.random.default_rng(1)
    model = logit_model(gen.normal(size=(3, 5)), gen.normal(size=3))
    params = PosthocParams(odin_epsilon=0.0, odin_temperature=1.0)
    for _ in range(50):
        x = gen.normal(size=5)
        assert score_one("odin", model, None, x, params) == pytest.approx(
            score_one("msp", model, None, x), abs=1e-12
        )


def test_odin_eps0_is_tempered_msp():
    gen = np.random.default_rng(2)
    model = logit_model(gen.normal(size=(4, 3)), gen.normal(size=4))
    params = PosthocParams(odin_epsilon=0.0, odin_temperature=1000.0)
    x = gen.normal(size=3)
    expect = softmax(model.logits(x[None, :])[0], 1000.0).max()
    assert score_one("odin", model, None, x, params) == pytest.approx(expect, abs=1e-15)


def test_odin_gradient_matches_finite_differences():
    gen = np.random.default_rng(3)
    for trial in range(5):
        model = logit_model(gen.normal(size=(3, 4)), gen.normal(size=3))
        X = gen.normal(size=(1, 4))
        T = 10.0
        g = odin_input_gradient(model, X, T)[0]

        def obj(x):
            p = softmax(model.logits(x[None, :])[0], T)
            return math.log(p.max())

        eps = 1e-6
        for j in range(4):
            xp, xm = X[0].copy(), X[0].copy()
            xp[j] += eps
            xm[j] -= eps
            num = (obj(xp) - obj(xm)) / (2 * eps)
            assert abs(g[j] - num) / max(abs(num), 1e-9) < 1e-6


@pytest.mark.parametrize("feature_tau", [None, 0.1])
def test_odin_gradient_through_projection(feature_tau):
    """The input gradient through the optional feature map, which projects
    rows onto the sphere of radius 1 / feature_tau, then the head."""
    gen = np.random.default_rng(4)
    head = LinearHead(gen.normal(size=(3, 6)), gen.normal(size=3))
    model = CilModel(head, feature_tau)
    X = gen.normal(size=(1, 6))
    T = 5.0
    g = odin_input_gradient(model, X, T)[0]
    eps = 1e-6

    def obj(x):
        z = x[None, :]
        if feature_tau:
            z = z / (np.linalg.norm(z) * feature_tau)
        return math.log(softmax(head.logits(z)[0], T).max())

    for j in range(6):
        xp, xm = X[0].copy(), X[0].copy()
        xp[j] += eps
        xm[j] -= eps
        num = (obj(xp) - obj(xm)) / (2 * eps)
        assert abs(g[j] - num) / max(abs(num), 1e-9) < 1e-6


def test_react_p100_equals_energy_exactly():
    gen = np.random.default_rng(5)
    model = logit_model(gen.normal(size=(4, 6)), gen.normal(size=4))
    fit = fit_scorer("react", model, gen.normal(size=(50, 6)), PosthocParams(react_percentile=100.0))
    assert fit.react_threshold == np.inf
    for _ in range(1000):
        x = gen.normal(size=6) * 10
        assert score_one("react", model, fit, x) == score_one("energy", model, None, x)


def test_react_saturation_is_constant():
    gen = np.random.default_rng(6)
    model = logit_model(gen.normal(size=(3, 4)), gen.normal(size=3))
    fit = ScorerFit(react_threshold=-5.0)
    xs = gen.normal(size=(5, 4)) + 10.0  # all activations above the threshold
    vals = [score_one("react", model, fit, x) for x in xs]
    expect = logsumexp(model.head.logits(np.full((1, 4), -5.0))[0], 1.0)
    assert all(v == pytest.approx(expect, abs=1e-12) for v in vals)


def test_percentile_matches_sort_oracle():
    gen = np.random.default_rng(7)
    vals = gen.normal(size=1000)
    for p in (5, 37.5, 50, 90, 99, 100):
        srt = np.sort(vals)
        rank = max(1, math.ceil(p / 100 * 1000))
        assert percentile_nearest_rank(vals, p) == srt[rank - 1]


def test_klm_template_match_scores_zero():
    gen = np.random.default_rng(8)
    model = logit_model(gen.normal(size=(3, 3)), np.zeros(3))
    row = gen.normal(size=(1, 3))
    fit = fit_scorer("klm", model, row)
    assert score_one("klm", model, fit, row[0]) == pytest.approx(0.0, abs=1e-12)


def test_klm_uniform_template_one_hot_input():
    model, x = passthrough([1000.0, 0.0])
    fit = ScorerFit(klm_templates=np.array([[0.5, 0.5]]))
    assert score_one("klm", model, fit, x) == pytest.approx(-math.log(2), abs=1e-12)


def test_klm_finite_for_extreme_inputs():
    gen = np.random.default_rng(9)
    model = logit_model(gen.normal(size=(4, 4)), np.zeros(4))
    fit = fit_scorer("klm", model, gen.normal(size=(30, 4)))
    x = np.array([1e4, -1e4, 0.0, 0.0])
    assert np.isfinite(score_one("klm", model, fit, x))


def test_nnguide_identity_and_orthogonal():
    model = logit_model(np.eye(2), np.zeros(2))
    bank_row = np.array([[2.0, 0.0]])
    fit = fit_scorer("nnguide", model, bank_row, PosthocParams(knn_k=1))
    x = np.array([3.0, 0.0])  # same direction as the bank row
    assert score_one("nnguide", model, fit, x, PosthocParams(knn_k=1)) == pytest.approx(
        score_one("energy", model, None, x), abs=1e-12
    )
    x_orth = np.array([0.0, 4.0])
    assert score_one("nnguide", model, fit, x_orth, PosthocParams(knn_k=1)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_nnguide_matches_exhaustive_knn():
    gen = np.random.default_rng(10)
    model = logit_model(gen.normal(size=(3, 4)), gen.normal(size=3))
    bank = gen.normal(size=(5, 4))
    params = PosthocParams(knn_k=3)
    fit = fit_scorer("nnguide", model, bank, params)
    for _ in range(20):
        x = gen.normal(size=4)
        z = x / np.linalg.norm(x)
        sims = sorted(
            (b / np.linalg.norm(b)) @ z for b in model.penultimate(bank)
        )[-3:]
        expect = score_one("energy", model, None, x) * np.mean(sims)
        assert score_one("nnguide", model, fit, x, params) == pytest.approx(expect, abs=1e-12)


def test_relation_examples_and_oracle():
    model = logit_model(np.eye(2), np.zeros(2))
    # single bank row equal to x
    bank = np.array([[4.0, 0.0]])
    fit = fit_scorer("relation_simplified", model, bank, PosthocParams(knn_k=1))
    msp_of_row = score_one("msp", model, None, bank[0])
    x = np.array([4.0, 0.0])
    assert score_one("relation_simplified", model, fit, x, PosthocParams(knn_k=1)
    ) == pytest.approx(msp_of_row, abs=1e-12)
    # all-negative similarities give zero
    x_neg = np.array([-4.0, 0.0])
    assert score_one("relation_simplified", model, fit, x_neg, PosthocParams(knn_k=1)
    ) == pytest.approx(0.0, abs=1e-12)

    gen = np.random.default_rng(11)
    model2 = logit_model(gen.normal(size=(3, 4)), gen.normal(size=3))
    bank2 = gen.normal(size=(9, 4))
    params = PosthocParams(knn_k=5)
    fit2 = fit_scorer("relation_simplified", model2, bank2, params)
    for _ in range(10):
        x = gen.normal(size=4)
        z = x / np.linalg.norm(x)
        pairs = []
        for b in bank2:
            sim = (b / np.linalg.norm(b)) @ z
            msp_b = score_one("msp", model2, None, b)
            pairs.append((sim, msp_b))
        pairs.sort()
        expect = sum(max(0.0, s) * m for s, m in pairs[-5:])
        assert score_one("relation_simplified", model2, fit2, x, params) == pytest.approx(
            expect, abs=1e-12
        )


def test_scorers_are_deterministic():
    gen = np.random.default_rng(12)
    model = logit_model(gen.normal(size=(4, 6)), gen.normal(size=4))
    bank = gen.normal(size=(40, 6))
    X = gen.normal(size=(10, 6))
    for name in SCORER_NAMES:
        fit = fit_scorer(name, model, bank)
        s1 = score_batch(name, model, fit, X)
        s2 = score_batch(name, model, fit, X)
        np.testing.assert_array_equal(s1, s2)
        # rows given as lists score alike: the model reads them as float64
        from_lists = fit_scorer(name, model, bank.tolist())
        np.testing.assert_array_equal(score_batch(name, model, from_lists, X.tolist()), s1)


def test_fit_scorer_rejects_unknown():
    model = logit_model(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        fit_scorer("mahalanobis", model, np.ones((2, 2)))


def unit_dyadic_rows(gen, n, d, splits):
    """Unit rows of signed powers of two, grown by splitting an entry m into
    four entries m/2 (which keeps the norm at 1).  Their cosines are sums of
    dyadic products, exact in any summation order, so every matmul kernel
    and blocking gives the same bits."""
    X = np.zeros((n, d))
    for row in X:
        row[gen.integers(d)] = 1.0
        for _ in range(splits):
            free = np.flatnonzero(row == 0)
            if free.size < 3:
                break
            i = gen.choice(np.flatnonzero(row))
            row[i] /= 2
            row[gen.choice(free, size=3, replace=False)] = row[i]
        row *= gen.choice([-1.0, 1.0], size=d)
    return X


def pair_sims_matrix(fit, Z):
    """Every query x bank cosine, each by the pair reduction the bank
    search rescores its candidates with, against ``l2_rows`` of the whole
    bank in float64 (the fit holds only its float32 screen)."""
    Q, B = l2_rows(Z), l2_rows(fit.bank_map(fit.bank_rows.widen()))
    n, nb = Q.shape[0], B.shape[0]
    return posthoc._pair_sims(np.repeat(Q, nb, axis=0), np.tile(B, (n, 1))).reshape(n, nb)


def full_topk(fit, Z, k):
    """The unscreened search: every pair's float64 cosine with a stable
    descending sort, so bank rows tied at the k-th similarity enter in bank
    order; each row's k in ascending similarity, ties in bank order."""
    sims = pair_sims_matrix(fit, Z)
    k = min(k, sims.shape[1])
    idx = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    part = np.take_along_axis(sims, idx, axis=1)
    order = np.lexsort((idx, part), axis=1)  # by similarity, then bank index
    return np.take_along_axis(part, order, axis=1), np.take_along_axis(idx, order, axis=1)


def top_k_by_slice(fit, Z, k):
    """The bank search of ``Z`` as ``score_batch`` runs it: k clamped to
    the bank, then one ``_slice_top_k`` call per slice of ``_SLICE_ROWS``
    rows."""
    n, k = Z.shape[0], min(k, fit.bank_features.shape[0])
    sims, idx = np.empty((n, k)), np.empty((n, k), dtype=np.intp)
    for start in range(0, n, posthoc._SLICE_ROWS):
        part = slice(start, start + posthoc._SLICE_ROWS)
        sims[part], idx[part] = posthoc._slice_top_k(fit, Z[part], k)
    return sims, idx


@pytest.mark.parametrize(
    "n_query, n_bank, block_cells, k",
    [
        (130, 100, 4800, 10),  # budget below one slice: one worker
        (130, 100, 30_000, 10),  # two slices, the second ragged: two workers
        (200, 300, 1000, 10),  # bank above the cell budget: one worker
        (97, 5, 1 << 21, 10),  # k larger than the bank
        (0, 50, 1 << 21, 10),  # no queries
    ],
)
def test_blocked_topk_matches_full_matrix(monkeypatch, n_query, n_bank, block_cells, k):
    monkeypatch.setattr(posthoc, "_BLOCK_CELLS", block_cells)
    gen = np.random.default_rng(n_query + n_bank)
    d, C = 24, 5
    model = logit_model(gen.normal(size=(C, d)), gen.normal(size=C))
    bank = unit_dyadic_rows(gen, n_bank, d, 6)
    Z = unit_dyadic_rows(gen, n_query, d, 6)
    params = PosthocParams(knn_k=k)
    for name in ("nnguide", "relation_simplified"):
        fit = fit_scorer(name, model, bank, params)
        part, idx = full_topk(fit, Z, k)
        sims, got_idx = top_k_by_slice(fit, Z, k)
        assert sims.tobytes() == part.tobytes()
        np.testing.assert_array_equal(got_idx, idx)
        if name == "nnguide":
            energy = logsumexp_rows(model.head.logits(Z), params.tau)
            expect = energy * part.mean(axis=1)
        else:
            expect = (np.maximum(part, 0.0) * fit.bank_msp[idx]).sum(axis=1)
        got = score_batch(name, model, fit, Z, params)
        assert got.tobytes() == expect.tobytes()


def test_bank_rows_tied_at_the_kth_similarity_enter_in_bank_order(monkeypatch):
    # every bank row three times over (copies at j, j + 40 and j + 80):
    # most queries' k-th similarity is shared by copies of which only some
    # fit, and the lowest-indexed copies must be the ones taken.  Dyadic
    # rows make the copies' similarities equal bit for bit.
    gen = np.random.default_rng(41)
    d, C, k = 24, 5, 10
    model = logit_model(gen.normal(size=(C, d)), gen.normal(size=C))
    bank = np.tile(unit_dyadic_rows(gen, 40, d, 6), (3, 1))
    Z = unit_dyadic_rows(gen, 200, d, 6)
    params = PosthocParams(knn_k=k)
    fit = fit_scorer("relation_simplified", model, bank, params)
    full = pair_sims_matrix(fit, Z)
    got = {}
    for cores in (1, 2, 3, 4):
        monkeypatch.setattr(posthoc, "usable_cores", lambda: cores)
        sims, idx = top_k_by_slice(fit, Z, k)
        scores = {
            name: score_batch(name, model, fit_scorer(name, model, bank, params), Z, params)
            for name in ("nnguide", "relation_simplified")
        }
        got[cores] = (sims.tobytes(), idx.tobytes(), {n: v.tobytes() for n, v in scores.items()})
    assert all(got[cores] == got[1] for cores in (2, 3, 4))
    part, want = full_topk(fit, Z, k)
    assert sims.tobytes() == part.tobytes()
    np.testing.assert_array_equal(idx, want)
    boundary_ties = 0
    for row, kept in zip(full, idx):
        left_out = np.setdiff1d(np.arange(bank.shape[0]), kept)
        kth = row[kept].min()
        assert (row[left_out] <= kth).all()
        tied_out = left_out[row[left_out] == kth]
        if tied_out.size:
            boundary_ties += 1
            assert tied_out.min() > kept[row[kept] == kth].max()
    assert boundary_ties > 100


def bank_search_case(kind, d, n_query, n_bank, seed):
    """Raw query and bank rows of one kind: Gaussian; small integers, so
    that many cosines tie exactly; near-ties, bank rows 1e-9 apart, so that
    many cosines lie closer together than the float32 screen resolves; or
    Gaussian banks with zero queries mixed in, whose cosines all tie at 0."""
    gen = np.random.default_rng(seed)
    if kind == "integer":
        return (gen.integers(-2, 3, size=(n, d)).astype(float) for n in (n_query, n_bank))
    if kind == "near_tie":
        base = gen.normal(size=d)
        Z = gen.normal(size=(n_query, d))
        Z[gen.random(n_query) < 0.25] = base
        return Z, base + 1e-9 * gen.normal(size=(n_bank, d))
    Z = gen.normal(size=(n_query, d))
    if kind == "zero_queries":
        Z[gen.random(n_query) < 0.5] = 0.0
    return Z, gen.normal(size=(n_bank, d))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "integer", "near_tie", "zero_queries"]),
    k=st.integers(1, 12),
    bank_size=st.sampled_from(["k", "k+1", "8k-1", "8k", "5000"]),
    d=st.integers(1, 8),
    n_query=st.integers(0, 20),
    slice_rows=st.sampled_from([1, 3, 128]),
    seed=st.integers(0, 2**32 - 1),
)
@example("zero_queries", 10, "5000", 8, 20, 128, 0)
@example("near_tie", 10, "8k", 8, 20, 3, 1)
def test_bank_search_is_the_unscreened_float64_top_k(
    kind, k, bank_size, d, n_query, slice_rows, seed
):
    n_bank = {"k": k, "k+1": k + 1, "8k-1": 8 * k - 1, "8k": 8 * k, "5000": 5000}[bank_size]
    Z, bank = bank_search_case(kind, d, n_query, n_bank, seed)
    model = logit_model(np.eye(2, d), np.zeros(2))
    fit = fit_scorer("nnguide", model, bank)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posthoc, "_SLICE_ROWS", slice_rows)
        sims, idx = top_k_by_slice(fit, Z, k)
    want_sims, want_idx = full_topk(fit, Z, k)
    assert sims.tobytes() == want_sims.tobytes()
    assert idx.tobytes() == want_idx.astype(np.intp).tobytes()


def test_each_query_alone_gets_the_batch_bytes():
    # a one-row slice takes numpy's matrix-vector path through BLAS, whose
    # float32 screen rounds unlike a slice's; the rescored bytes do not
    gen = np.random.default_rng(31)
    d, k = 24, 10
    model = logit_model(gen.normal(size=(6, d)), gen.normal(size=6))
    fit = fit_scorer("nnguide", model, gen.normal(size=(300, d)))
    Z = gen.normal(size=(150, d))
    Z[7] = 0.0
    sims, idx = top_k_by_slice(fit, Z, k)
    for i in range(Z.shape[0]):
        one_sims, one_idx = posthoc._slice_top_k(fit, Z[i : i + 1], k)
        assert one_sims.tobytes() == sims[i : i + 1].tobytes()
        assert one_idx.tobytes() == idx[i : i + 1].tobytes()
    # column-major rows, whose norms numpy would sum in another order
    f_sims, f_idx = top_k_by_slice(fit, np.asfortranarray(Z), k)
    assert f_sims.tobytes() == sims.tobytes()
    assert f_idx.tobytes() == idx.tobytes()


def test_worker_count_does_not_change_bank_scores(monkeypatch):
    # Gaussian rows, unlike the dyadic rows above, have float32 screens that
    # round differently when the BLAS call that computes a row changes.  500
    # queries make four 128-row slices, the last one ragged; the budget
    # holds three slices of the 300-row bank, so a fourth core adds no worker.
    monkeypatch.setattr(posthoc, "_SLICE_ROWS", 128)
    monkeypatch.setattr(posthoc, "_BLOCK_CELLS", 3 * 128 * 300)
    pools = []

    class SpyPool(posthoc.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(posthoc, "ThreadPoolExecutor", SpyPool)
    searches = []  # each slice's query, similarity and index bytes
    search = posthoc._slice_top_k

    def spy_search(fit, Zs, k):
        sims, idx = search(fit, Zs, k)
        searches.append((Zs.tobytes(), sims.tobytes(), idx.tobytes()))
        return sims, idx

    monkeypatch.setattr(posthoc, "_slice_top_k", spy_search)
    gen = np.random.default_rng(29)
    d, C, k = 24, 6, 10
    model = logit_model(gen.normal(size=(C, d)), gen.normal(size=C))
    bank = gen.normal(size=(300, d))
    Z = gen.normal(size=(500, d))
    params = PosthocParams(knn_k=k)
    got = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(posthoc, "usable_cores", lambda: cores)
            for name in ("nnguide", "relation_simplified"):
                fit = fit_scorer(name, model, bank, params)
                searches.clear()
                scores = score_batch(name, model, fit, Z, params)
                got[cores, name] = (sorted(searches), scores.tobytes())
    finally:
        sys.setswitchinterval(switch)
    # one pool per score_batch call
    assert pools == [1, 1, 2, 2, 3, 3, 3, 3]
    for cores in (2, 3, 4):
        for name in ("nnguide", "relation_simplified"):
            assert len(got[cores, name][0]) == 4
            assert got[cores, name] == got[1, name]


def test_bank_scoring_memory_is_bounded_by_the_block(monkeypatch):
    gen = np.random.default_rng(13)
    n, d = 4000, 32
    model = logit_model(gen.normal(size=(10, d)), gen.normal(size=10))
    fit = fit_scorer("nnguide", model, gen.normal(size=(n, d)))
    X = gen.normal(size=(n, d))
    full_matrix = n * n * 8  # 128 MB
    for workers in (1, 2):
        monkeypatch.setattr(posthoc, "usable_cores", lambda: workers)
        tracemalloc.start()
        try:
            score_batch("nnguide", model, fit, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_matrix / 3


def float32_rows(gen, n, d):
    """A view of n float32 rows, as a manifest suite holds them."""
    return RowView.of(gen.normal(size=(n, d)).astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_slice_a_view_hands_out_is_float64(monkeypatch, dtype):
    # the scorers, the bank build and the rescore read rows only through
    # RowView.read, the float64 boundary, whatever the storage holds
    reads = []
    read = RowView.read

    def spy(self, sel):
        rows = read(self, sel)
        reads.append((self.storage.dtype, isinstance(sel, slice), rows.dtype))
        return rows

    monkeypatch.setattr(RowView, "read", spy)
    gen = np.random.default_rng(43)
    d = 12
    model = logit_model(gen.normal(size=(5, d)), gen.normal(size=5))
    bank = RowView(gen.normal(size=(200, d)).astype(dtype), gen.permutation(200)[:150])
    X = RowView(gen.normal(size=(300, d)).astype(dtype), gen.permutation(300))
    for name in SCORER_NAMES:
        reads.clear()
        fit = fit_scorer(name, model, bank)
        score_batch(name, model, fit, X)
        assert reads and {r[0] for r in reads} == {np.dtype(dtype)}
        assert {r[2] for r in reads} == {np.dtype(np.float64)}
        if name in ("nnguide", "relation_simplified"):
            assert any(not by_slice for _, by_slice, _ in reads)  # the rescore's gathers


@pytest.mark.parametrize("feature_tau", [None, 0.1])
def test_a_float32_view_scores_as_its_float64_widening(feature_tau):
    gen = np.random.default_rng(44)
    d = 16
    head = LinearHead(gen.normal(size=(6, d)), gen.normal(size=6))
    model = CilModel(head, feature_tau)
    bank, X = float32_rows(gen, 400, d), float32_rows(gen, 700, d)
    for name in SCORER_NAMES:
        got = score_batch(name, model, fit_scorer(name, model, bank), X)
        wide = fit_scorer(name, model, bank.widen())
        assert got.tobytes() == score_batch(name, model, wide, X.widen()).tobytes(), name


@pytest.mark.parametrize("feature_tau", [None, 0.25])
@pytest.mark.parametrize("d", [8, 37, 256, 1000])
def test_a_rebuilt_bank_row_has_the_bits_of_the_whole_bank(d, feature_tau):
    # the rescore rebuilds its candidates from storage: widened, mapped and
    # divided by the stored norm, row by row as l2_rows does the whole bank
    gen = np.random.default_rng(d)
    model = CilModel(LinearHead(gen.normal(size=(3, d)), np.zeros(3)), feature_tau)
    bank = float32_rows(gen, 600, d)
    want = l2_rows(model.penultimate(bank.widen()))
    fit = fit_scorer("nnguide", model, bank)
    assert fit.bank_features.dtype == np.float32
    assert fit.bank_features.tobytes() == want.astype(np.float32).tobytes()
    for _ in range(40):
        idx = gen.integers(0, 600, size=int(gen.integers(1, 60)))
        assert fit.bank_unit(idx).tobytes() == want[idx].tobytes()


@pytest.mark.parametrize("name", ["energy", "nnguide"])
def test_scoring_memory_does_not_grow_with_the_rows_scored(monkeypatch, name):
    # a float32 OOD set of 4n rows, scored through ood_subset's view at n
    # and at 4n rows: the rows are read a slice at a time, so the peak
    # grows by the score arrays only, where a float64 copy of the subset
    # grew it by 3n rows of 2 KiB
    monkeypatch.setattr(posthoc, "usable_cores", lambda: 1)
    gen = np.random.default_rng(45)
    n, d = 1024, 256
    ood = FeatureDataset(gen.normal(size=(4 * n, d)).astype(np.float32), np.zeros(4 * n, int))
    order = ood_order(ood, RngStream(0, "ood"))
    model = logit_model(gen.normal(size=(10, d)) / 16, gen.normal(size=10))
    fit = fit_scorer(name, model, float32_rows(gen, 1000, d))
    peaks = {}
    for t in (1, 4, 1, 4):  # the first pass warms up first-call allocations
        tracemalloc.start()
        try:
            scores = score_batch(name, model, fit, ood_subset(ood, t, 4, order))
            peaks[t] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (t * n,)
    assert peaks[4] - peaks[1] <= 4 * (4 * n * 8)
