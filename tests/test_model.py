import numpy as np
import pytest

from cilbench.model import (
    Extractor,
    LinearHead,
    SgdState,
    ce_loss,
    cosine_lr,
    expand_head,
    head_fingerprint,
    load_head,
    save_head,
    sgd_step,
    weight_align,
)
from cilbench.numerics import RngStream


def row_logits(head, x):
    """W x + b for one feature vector."""
    return head.logits(np.asarray(x, dtype=np.float64)[None, :])[0]


def random_head(C, d, seed=0):
    gen = np.random.default_rng(seed)
    return LinearHead(gen.normal(size=(C, d)), gen.normal(size=C))


def test_forward_identity_and_bias_only():
    head = LinearHead(np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(row_logits(head, [3.0, 4.0]), [3.0, 4.0])
    head2 = LinearHead(np.zeros((2, 3)), np.array([1.0, -1.0]))
    np.testing.assert_array_equal(row_logits(head2, [9.0, 9.0, 9.0]), [1.0, -1.0])


def test_forward_matches_triple_loop_oracle():
    head = random_head(3, 2, seed=5)
    x = np.array([0.3, -1.2])
    expected = [
        sum(head.W[i, j] * x[j] for j in range(2)) + head.b[i] for i in range(3)
    ]
    np.testing.assert_allclose(row_logits(head, x), expected, atol=1e-12)


def test_forward_dim_mismatch():
    with pytest.raises(ValueError):
        row_logits(random_head(2, 3), [1.0, 2.0])


def test_expand_from_empty_and_bit_preservation():
    rng = RngStream(1, "exp")
    head = expand_head(LinearHead.empty(4), 3, "seeded_uniform", rng)
    assert head.n_classes == 3
    old_bytes = head.W.tobytes()
    bigger = expand_head(head, 2, "zeros")
    assert bigger.n_classes == 5
    assert bigger.W[:3].tobytes() == old_bytes
    np.testing.assert_array_equal(bigger.W[3:], 0.0)
    x = np.ones(4)
    np.testing.assert_array_equal(
        row_logits(bigger, x)[:3], row_logits(head, x)
    )


def test_expand_uniform_bound():
    rng = RngStream(2, "exp")
    head = expand_head(LinearHead.empty(16), 8, "seeded_uniform", rng)
    assert np.all(np.abs(head.W) <= 0.25)


def test_cosine_schedule_endpoints_and_monotone():
    assert cosine_lr(0.1, 0, 100) == 0.1
    assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-17)
    vals = [cosine_lr(0.1, s, 100) for s in range(101)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sgd_vanilla_step():
    head = LinearHead(np.array([[1.0]]), np.array([0.0]))
    state = SgdState(lr0=0.5, momentum=0.0, weight_decay=0.0)
    # constant lr at step 0 of a long schedule
    sgd_step(state, head, np.array([[2.0]]), np.array([0.0]), 0, 10**9)
    assert head.W[0, 0] == pytest.approx(1.0 - 0.5 * 2.0)


def test_sgd_momentum_matches_hand_unroll():
    head = LinearHead(np.array([[1.0]]), np.array([0.5]))
    state = SgdState(lr0=0.1, momentum=0.9, weight_decay=0.01)
    gW = np.array([[0.3]])
    gb = np.array([0.2])
    # hand recurrence on the scalar weight
    w, b = 1.0, 0.5
    vw = vb = 0.0
    for step in (0, 1):
        lr = cosine_lr(0.1, step, 100)
        vw = 0.9 * vw + (0.3 + 0.01 * w)
        vb = 0.9 * vb + (0.2 + 0.01 * b)
        w -= lr * vw
        b -= lr * vb
        sgd_step(state, head, gW, gb, step, 100)
    assert head.W[0, 0] == pytest.approx(w, abs=1e-15)
    assert head.b[0] == pytest.approx(b, abs=1e-15)


def test_sgd_velocity_grows_with_head():
    head = random_head(2, 3)
    state = SgdState()
    sgd_step(state, head, np.zeros_like(head.W), np.zeros_like(head.b), 0, 10)
    head2 = expand_head(head, 2, "zeros")
    state.ensure(head2)
    assert state.vW.shape == (4, 3)
    np.testing.assert_array_equal(state.vW[2:], 0.0)


def test_weight_align_identity_and_halving():
    W = np.array([[3.0, 4.0], [0.0, 5.0], [6.0, 8.0], [0.0, 10.0]])
    head = LinearHead(W, np.arange(4.0))
    aligned = weight_align(head, [0, 1], [2, 3])
    # new rows have exactly twice the old mean norm, so they halve
    np.testing.assert_allclose(aligned.W[2:], W[2:] / 2.0, atol=1e-12)
    np.testing.assert_array_equal(aligned.W[:2], W[:2])
    np.testing.assert_array_equal(aligned.b, head.b)
    same = weight_align(head, [0, 1], [0, 1])
    np.testing.assert_allclose(same.W, W, atol=1e-15)


def test_weight_align_restores_mean_norm():
    head = random_head(6, 4, seed=9)
    aligned = weight_align(head, [0, 1, 2], [3, 4, 5])
    target = np.linalg.norm(head.W[:3], axis=1).mean()
    got = np.linalg.norm(aligned.W[3:], axis=1).mean()
    assert got == pytest.approx(target, abs=1e-10)


def test_weight_align_zero_norm_error():
    head = LinearHead(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        weight_align(head, [0], [1])


def central_diff(fn, arr, eps=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        hi = fn()
        arr[idx] = orig - eps
        lo = fn()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def test_ce_gradient_matches_finite_differences():
    gen = np.random.default_rng(3)
    for _ in range(10):
        C, d, n = int(gen.integers(2, 6)), int(gen.integers(2, 9)), 7
        head = LinearHead(gen.normal(size=(C, d)), gen.normal(size=C))
        X = gen.normal(size=(n, d))
        y = gen.integers(0, C, n)
        _, dW, db = ce_loss(head, X, y)
        num_W = central_diff(lambda: ce_loss(head, X, y)[0], head.W)
        num_b = central_diff(lambda: ce_loss(head, X, y)[0], head.b)
        assert np.max(np.abs(dW - num_W)) / max(np.max(np.abs(num_W)), 1e-9) < 1e-6
        assert np.max(np.abs(db - num_b)) / max(np.max(np.abs(num_b)), 1e-9) < 1e-6


def test_head_checkpoint_round_trip(tmp_path):
    head = random_head(4, 6, seed=11)
    p = tmp_path / "head.och"
    save_head(head, p)
    back = load_head(p)
    np.testing.assert_array_equal(back.W, head.W)
    np.testing.assert_array_equal(back.b, head.b)
    assert head_fingerprint(back) == head_fingerprint(head)
    assert p.read_bytes()[:4] == b"OCH1"


def test_extractor_projection_fixed_and_backprop():
    ext = Extractor("random_projection", d_in=5, d_out=3, seed=4)
    ext2 = Extractor("random_projection", d_in=5, d_out=3, seed=4)
    np.testing.assert_array_equal(ext.matrix, ext2.matrix)
    X = np.random.default_rng(0).normal(size=(4, 5))
    np.testing.assert_allclose(ext.extract(X), X @ ext.matrix.T, atol=1e-15)
    G = np.ones((4, 3))
    np.testing.assert_allclose(ext.backprop_input(G), G @ ext.matrix, atol=1e-15)
    ident = Extractor()
    np.testing.assert_array_equal(ident.extract(X), X)
