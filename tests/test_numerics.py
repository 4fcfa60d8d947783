import math

import numpy as np
import pytest

from cilbench.model import LinearHead, ce_loss
from cilbench.numerics import (
    RngStream,
    l2_rows,
    l2_rows_backward,
    logsumexp_rows,
    logsumexp_softmax_rows,
    softmax_cross_entropy,
    softmax_rows,
)
from oracles import log_softmax_rows, logsumexp, softmax


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
        logsumexp_rows(np.zeros((1, 0)), 1.0)
    with pytest.raises(ValueError):
        logsumexp_rows(np.array([[1.0]]), 0.0)
    with pytest.raises(ValueError):
        softmax_rows(np.array([[1.0]]), 0.0)


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


def test_rng_substreams_differ_and_repeat():
    root = RngStream(77)
    a = root.child("a").gen.uniform(size=5)
    b = root.child("b").gen.uniform(size=5)
    a2 = RngStream(77).child("a").gen.uniform(size=5)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, a2)


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


@pytest.mark.parametrize("scale", [0.01, 1.0, 50.0, 1e3])
def test_softmax_cross_entropy_is_bit_exact_with_two_pass_oracle(scale):
    gen = np.random.default_rng(int(scale * 100))
    for n, c in ((1, 2), (9, 4), (64, 11)):
        M = gen.normal(size=(n, c)) * scale
        y = gen.integers(0, c, n)
        M_before = M.copy()
        loss, G = softmax_cross_entropy(M, y)
        want_G = softmax_rows(M)
        want_G[np.arange(n), y] -= 1.0
        want_G /= n
        assert loss == float(-log_softmax_rows(M)[np.arange(n), y].mean())
        assert G.tobytes() == want_G.tobytes()
        assert M.tobytes() == M_before.tobytes()


def test_l2_rows_with_tau_row_norms():
    gen = np.random.default_rng(12)
    Z = gen.normal(size=(10, 6))
    out = l2_rows(Z, 0.1)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 10.0, atol=1e-9)


def norm_then_scale(Z, tau):
    """The feature map of CilModel.penultimate and t2fnorm before l2_rows."""
    norms = np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-12)
    return Z / (norms * tau)


def bank_l2_rows(X):
    """The feature-bank normalization of the post-hoc scorers before l2_rows."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(norms, 1e-12)


@pytest.mark.parametrize("tau", [1.0, 0.1, 0.04, 3.0])
def test_l2_rows_matches_the_copies_it_replaced(tau):
    gen = np.random.default_rng(7)
    Z = gen.normal(size=(64, 9)) * gen.lognormal(size=(64, 1)) * 5.0
    Z[3] = 0.0  # a zero row stays zero
    Z[5] = 1e-14  # a row with norm below the floor
    got = l2_rows(Z, tau)
    assert got.tobytes() == norm_then_scale(Z, tau).tobytes()
    assert not got[3].any()
    if tau == 1.0:
        assert l2_rows(Z).tobytes() == bank_l2_rows(Z).tobytes()


def model_l2_backward(X, G, tau):
    """CilModel.backprop_input's map through the feature map before
    l2_rows_backward."""
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    unit = X / norms
    inner = (G * unit).sum(axis=1, keepdims=True)
    return (G - unit * inner) / (norms * tau)


def logitnorm_l2_backward(Z, Gu, tau):
    """logitnorm_ce_loss's gradient through the normalized logits before
    l2_rows_backward."""
    norms = np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-12)
    hat = Z / norms
    return (Gu - hat * (Gu * hat).sum(axis=1, keepdims=True)) / (norms * tau)


@pytest.mark.parametrize("tau", [1.0, 0.1, 0.04, 3.0])
def test_l2_rows_backward_matches_the_copies_it_replaced(tau):
    gen = np.random.default_rng(int(tau * 100))
    X = gen.normal(size=(64, 9)) * gen.lognormal(size=(64, 1)) * 5.0
    X[3] = 0.0
    X[5] = 1e-14  # a row with norm below the floor
    G = gen.normal(size=X.shape)
    got = l2_rows_backward(X, G, tau)
    assert got.tobytes() == model_l2_backward(X, G, tau).tobytes()
    assert got.tobytes() == logitnorm_l2_backward(X, G, tau).tobytes()
    # and it is the gradient of <G, l2_rows(X, tau)> away from the floor
    h = 1e-6
    for i, j in ((0, 0), (10, 4), (63, 8)):
        up, down = X.copy(), X.copy()
        up[i, j] += h
        down[i, j] -= h
        fd = ((G * l2_rows(up, tau)).sum() - (G * l2_rows(down, tau)).sum()) / (2 * h)
        assert fd == pytest.approx(got[i, j], rel=1e-5, abs=1e-8)


def separate_logsumexp_rows(m, tau):
    """logsumexp_rows before it shared its exp with softmax_rows."""
    scaled = m / tau
    peak = scaled.max(axis=1, keepdims=True)
    return tau * (peak[:, 0] + np.log(np.exp(scaled - peak).sum(axis=1)))


def separate_softmax_rows(m, tau):
    """softmax_rows before it shared its exp with logsumexp_rows."""
    scaled = m / tau
    e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("tau", [1.0, 0.3, 2.5, 1000.0])
def test_logsumexp_softmax_rows_matches_the_copies_it_replaced(tau):
    gen = np.random.default_rng(int(tau * 10))
    for n, c, scale in ((1, 1, 1.0), (9, 4, 30.0), (128, 11, 1e3)):
        M = gen.normal(size=(n, c)) * scale
        lse, P = logsumexp_softmax_rows(M, tau)
        assert lse.tobytes() == separate_logsumexp_rows(M, tau).tobytes()
        assert P.tobytes() == separate_softmax_rows(M, tau).tobytes()
        assert logsumexp_rows(M, tau).tobytes() == lse.tobytes()
        assert softmax_rows(M, tau).tobytes() == P.tobytes()


@pytest.mark.parametrize("tau", [1.0, 0.3, 1000.0])
def test_logsumexp_rows_is_the_fused_log_sum_exp_bit_for_bit(tau):
    # logsumexp_rows skips the softmax division, which comes after the
    # log-sum-exp is read, so its bits are those of the fused function
    gen = np.random.default_rng(int(tau * 7) + 1)
    for n, c, scale in ((1, 1, 1.0), (7, 3, 1e-3), (64, 100, 50.0), (300, 10, 1e4)):
        M = gen.normal(size=(n, c)) * scale
        M[0, -1] = M[0, 0]  # a tie at the row maximum
        assert logsumexp_rows(M, tau).tobytes() == logsumexp_softmax_rows(M, tau)[0].tobytes()
    with pytest.raises(ValueError, match="tau"):
        logsumexp_rows(np.zeros((2, 2)), 0.0)


@pytest.mark.parametrize("tau", [1.0, 0.3])
def test_no_kernel_writes_to_its_input(tau):
    # the kernels write the temporaries they own in place; every input, a
    # C-contiguous float64 array as the engine hands them, keeps its bytes
    gen = np.random.default_rng(11)
    X = gen.normal(size=(40, 6)) / tau
    y = gen.integers(5, size=40)
    head = LinearHead(gen.normal(size=(5, 6)), gen.normal(size=5))
    Z = head.logits(X) * 3.0
    G_extra = gen.normal(size=(40, 3))
    kernels = {
        "LinearHead.logits": lambda: head.logits(X),
        "softmax_rows": lambda: softmax_rows(Z, tau),
        "logsumexp_rows": lambda: logsumexp_rows(Z, tau),
        "logsumexp_softmax_rows": lambda: logsumexp_softmax_rows(Z, tau),
        "softmax_cross_entropy": lambda: softmax_cross_entropy(Z, y),
        "ce_loss": lambda: ce_loss(head, X, y),
        "ce_loss given Z": lambda: ce_loss(head, X, y, Z, G_extra),
    }
    inputs = {"X": X, "y": y, "Z": Z, "G_extra": G_extra, "params": head.params}
    for name, run in kernels.items():
        before = {k: v.tobytes() for k, v in inputs.items()}
        run()
        for k, v in inputs.items():
            assert v.tobytes() == before[k], (name, k)
