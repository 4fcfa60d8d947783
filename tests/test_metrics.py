import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cilbench.metrics import auroc, average_precision, fpr_at_tpr95
from oracles import rank_auroc, rank_average_precision, rank_fpr_at_tpr95


def brute_auroc(id_s, ood_s):
    total = 0.0
    for a in id_s:
        for b in ood_s:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(id_s) * len(ood_s))


def brute_fpr95(id_s, ood_s):
    # scan every candidate threshold, keep the largest with TPR >= 0.95
    best = None
    for theta in sorted(set(id_s), reverse=True):
        tpr = sum(1 for a in id_s if a >= theta) / len(id_s)
        if tpr >= 0.95:
            best = theta
            break
    return sum(1 for b in ood_s if b >= best) / len(ood_s)


def brute_ap(id_s, ood_s):
    rows = [(s, 0, i) for i, s in enumerate(id_s)] + [
        (s, 1, i) for i, s in enumerate(ood_s)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))  # ascending score, ID before OOD
    tp = 0
    ap = 0.0
    for k, (_, flag, _) in enumerate(rows, 1):
        if flag:
            tp += 1
            ap += tp / k
    return ap / len(ood_s)


def test_auroc_trivial():
    assert auroc([3.0, 4.0], [1.0, 2.0]) == 1.0
    assert auroc([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auroc_matches_bruteforce_exactly():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n1 = int(rng.integers(1, 101))
        n2 = int(rng.integers(1, 101))
        # integer-ish scores force tie handling to matter
        a = rng.integers(0, 20, n1).astype(float)
        b = rng.integers(0, 20, n2).astype(float)
        assert auroc(a, b) == brute_auroc(a, b)


def test_auroc_complement_without_ties():
    rng = np.random.default_rng(2)
    a = rng.permutation(200)[:90].astype(float)
    b = (rng.permutation(200)[:70] + 1000).astype(float)
    assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=0)


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(size=30)
        b = rng.normal(size=25)
        base = auroc(a, b)
        for f in (np.tanh, np.exp, lambda x: 3 * x + 1, np.arcsinh):
            assert auroc(f(a), f(b)) == pytest.approx(base, abs=1e-12)


def test_fpr_trivial_and_identical_sets():
    assert fpr_at_tpr95([10.0] * 20, [0.0] * 20) == 0.0
    base = np.arange(1, 101, dtype=float)
    # threshold 6 keeps 95 of 100 ID scores; 95 OOD scores are >= 6
    assert fpr_at_tpr95(base, base.copy()) == pytest.approx(0.95)


def test_fpr_matches_threshold_scan():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n1 = int(rng.integers(5, 150))
        n2 = int(rng.integers(5, 150))
        a = rng.integers(0, 30, n1).astype(float)
        b = rng.integers(0, 30, n2).astype(float)
        assert fpr_at_tpr95(a, b) == brute_fpr95(a, b)


def test_fpr_shift_monotonicity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=80)
    b = rng.normal(size=80)
    assert fpr_at_tpr95(a, b - 0.5) <= fpr_at_tpr95(a, b)


def test_ap_trivial_and_middle_rank():
    assert average_precision([2.0, 3.0, 4.0], [0.0, 1.0]) == 1.0
    # one OOD row with five ID rows below it: precision 1/6 at its rank
    id_s = np.arange(1.0, 10.0)
    assert average_precision(id_s, [5.5]) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_ap_tie_rule_is_pessimistic():
    # equal scores: ID rows rank ahead, so the lone OOD row lands at k=3
    assert average_precision([1.0, 1.0], [1.0]) == pytest.approx(1.0 / 3.0)


def test_ap_matches_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n1 = int(rng.integers(1, 110))
        n2 = int(rng.integers(1, 110))
        a = rng.integers(0, 25, n1).astype(float)
        b = rng.integers(0, 25, n2).astype(float)
        assert average_precision(a, b) == pytest.approx(brute_ap(a, b), abs=1e-12)


def test_metric_input_validation():
    with pytest.raises(ValueError):
        auroc([], [1.0])
    with pytest.raises(ValueError):
        fpr_at_tpr95([1.0], [])
    with pytest.raises(ValueError):
        average_precision([np.nan], [1.0])


# a pool of 1-12 values sets the tie density of each draw, within and
# across the two sets; grid values tie often, and signed zeros are in every
# pool's reach so -0.0 / 0.0 ties occur in either set
_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.integers(-40, 40).map(lambda k: k / 8),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
)
_SETS = st.lists(_VALUE, min_size=1, max_size=12).flatmap(
    lambda pool: st.tuples(*[st.lists(st.sampled_from(pool), min_size=1, max_size=60)] * 2)
)


@settings(max_examples=500, deadline=None)
@given(_SETS)
@example(([0.0, -0.0, 0.0, 1.0, -0.0, -1.0], [-0.0]))
@example(([-0.0], [0.0, -0.0, 0.0, 1.0, -0.0, -1.0]))
def test_counting_metrics_give_the_pooled_ranking_bits(sets):
    id_s, ood_s = (np.array(v, dtype=np.float64) for v in sets)
    for metric, oracle in (
        (auroc, rank_auroc),
        (fpr_at_tpr95, rank_fpr_at_tpr95),
        (average_precision, rank_average_precision),
    ):
        got, expect = metric(id_s, ood_s), oracle(id_s, ood_s)
        assert np.float64(got).tobytes() == np.float64(expect).tobytes(), metric.__name__
