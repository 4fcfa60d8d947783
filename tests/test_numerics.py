import math

import numpy as np
import pytest

from cilbench.numerics import (
    RngStream,
    cosine_sim,
    log_softmax_rows,
    logsumexp,
    sample_beta,
    softmax,
    softmax_rows,
)


def test_logsumexp_equal_logits():
    assert logsumexp([0.0, 0.0], 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_logsumexp_singleton_identity():
    assert logsumexp([5.0], 1.0) == pytest.approx(5.0, abs=1e-12)


def test_logsumexp_frozen_oracle():
    # 2*log(e^0.5 + e^1.0 + e^1.5), 50-digit summation
    assert logsumexp([1.0, 2.0, 3.0], 2.0) == pytest.approx(
        4.3605393412834691517, abs=1e-12
    )


def test_logsumexp_rejects_bad_input():
    with pytest.raises(ValueError):
        logsumexp([], 1.0)
    with pytest.raises(ValueError):
        logsumexp([1.0, np.inf], 1.0)
    with pytest.raises(ValueError):
        logsumexp([1.0], 0.0)


def test_logsumexp_bounds_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        v = rng.normal(0.0, 50.0, size=n)
        tau = float(rng.uniform(0.1, 10.0))
        val = logsumexp(v, tau)
        assert val >= v.max() - 1e-9
        assert val <= v.max() + tau * math.log(n) + 1e-9


def test_softmax_symmetry_and_stability():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    p = softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0, abs=1e-12)


def test_softmax_frozen_oracle():
    p = softmax([1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        p,
        [0.090030573170380458, 0.2447284710547976525, 0.6652409557748218895],
        atol=1e-14,
    )


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(0.0, 10.0, size=int(rng.integers(1, 9)))
        tau = float(rng.uniform(0.2, 5.0))
        p = softmax(v, tau)
        assert abs(p.sum() - 1.0) < 1e-12
        shifted = softmax(v + 3.7, tau)
        np.testing.assert_allclose(p, shifted, atol=1e-10)


def test_sample_beta_uniform_mean():
    rng = RngStream(123, "beta-test")
    draws = np.array([sample_beta(1.0, 1.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_sample_beta_moments_2_2():
    # Beta(2,2): mean 1/2, var 1/20
    rng = RngStream(5, "beta-moments")
    draws = np.array([sample_beta(2.0, 2.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 0.05) < 0.005


def test_sample_beta_swap_symmetry():
    n = 100_000
    r1 = RngStream(9, "swap")
    r2 = RngStream(9, "swap")
    x = np.array([sample_beta(2.0, 5.0, r1) for _ in range(n)])
    y = np.array([1.0 - sample_beta(5.0, 2.0, r2) for _ in range(n)])
    assert abs(x.mean() - y.mean()) < 0.01


def test_sample_beta_determinism():
    a = RngStream(42, "det")
    b = RngStream(42, "det")
    d1 = [sample_beta(0.7, 1.3, a) for _ in range(10)]
    d2 = [sample_beta(0.7, 1.3, b) for _ in range(10)]
    assert d1 == d2


def test_sample_beta_rejects_nonpositive():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        sample_beta(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_beta(1.0, -2.0, rng)


def test_rng_substreams_differ_and_repeat():
    root = RngStream(77)
    a = root.child("a").gen.uniform(size=5)
    b = root.child("b").gen.uniform(size=5)
    a2 = RngStream(77).child("a").gen.uniform(size=5)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, a2)


def test_cosine_examples():
    assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    # 11 / (sqrt5 * sqrt25)
    assert cosine_sim([1.0, 2.0], [3.0, 4.0]) == pytest.approx(
        0.9838699100999074664, abs=1e-14
    )


def test_cosine_errors():
    with pytest.raises(ValueError):
        cosine_sim([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        cosine_sim([1.0], [1.0, 2.0])


def test_log_softmax_rows_matches_log_of_softmax():
    gen = np.random.default_rng(0)
    M = gen.normal(size=(20, 7)) * 4
    np.testing.assert_allclose(log_softmax_rows(M), np.log(softmax_rows(M)), atol=1e-12)


def test_log_softmax_rows_finite_for_large_logits():
    gen = np.random.default_rng(1)
    M = 1e3 + gen.normal(size=(10, 5)) * 1e3
    out = log_softmax_rows(M)
    assert np.all(np.isfinite(out))
    assert np.all(out <= 0.0)
    np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)
