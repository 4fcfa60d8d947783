import numpy as np
import pytest

from cilbench.cil import CilConfig
from cilbench.model import (
    LinearHead,
    DivergenceError,
    ce_loss,
    check_finite_epoch,
    cosine_lr,
    expand_head,
    load_head,
    save_head,
    sgd_step,
    weight_align,
)
from cilbench.numerics import RngStream, softmax_rows
from oracles import head_bytes, log_softmax_rows


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
    head = expand_head(LinearHead.empty(4), 3, rng)
    assert head.n_classes == 3
    old_bytes = head.W.tobytes()
    bigger = expand_head(head, 2, rng.child("more"))
    assert bigger.n_classes == 5
    assert bigger.W[:3].tobytes() == old_bytes
    # new rows are the seeded draw and new biases are zero
    drawn = rng.child("more").child("head-init").gen.uniform(-0.5, 0.5, size=(2, 4))
    np.testing.assert_array_equal(bigger.W[3:], drawn)
    np.testing.assert_array_equal(bigger.b[3:], 0.0)
    x = np.ones(4)
    np.testing.assert_array_equal(
        row_logits(bigger, x)[:3], row_logits(head, x)
    )


def test_expand_uniform_bound():
    rng = RngStream(2, "exp")
    head = expand_head(LinearHead.empty(16), 8, rng)
    assert np.all(np.abs(head.W) <= 0.25)


def test_cosine_schedule_endpoints_and_monotone():
    assert cosine_lr(0.1, 0, 100) == 0.1
    assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-17)
    vals = [cosine_lr(0.1, s, 100) for s in range(101)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sgd_vanilla_step():
    head = LinearHead(np.array([[1.0]]), np.array([0.0]))
    cfg = CilConfig(lr0=0.5, momentum=0.0, weight_decay=0.0)
    velocity = np.zeros((1, 1)), np.zeros(1)
    # constant lr at step 0 of a long schedule
    sgd_step(cfg, velocity, head, np.array([[2.0]]), np.array([0.0]), 0, 10**9)
    assert head.W[0, 0] == pytest.approx(1.0 - 0.5 * 2.0)


def test_sgd_momentum_matches_hand_unroll():
    head = LinearHead(np.array([[1.0]]), np.array([0.5]))
    cfg = CilConfig(lr0=0.1, momentum=0.9, weight_decay=0.01)
    velocity = np.zeros((1, 1)), np.zeros(1)
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
        sgd_step(cfg, velocity, head, gW, gb, step, 100)
    assert head.W[0, 0] == pytest.approx(w, abs=1e-15)
    assert head.b[0] == pytest.approx(b, abs=1e-15)


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
    assert head_bytes(back) == head_bytes(head)
    assert p.read_bytes()[:4] == b"OCH1"


def two_pass_ce_loss(head, X, y_rows):
    """ce_loss before the fused kernel: softmax_rows and log_softmax_rows."""
    Z = head.logits(X)
    P = softmax_rows(Z)
    n = X.shape[0]
    loss = -log_softmax_rows(Z)[np.arange(n), y_rows].mean()
    G = P
    G[np.arange(n), y_rows] -= 1.0
    G /= n
    return float(loss), G.T @ X, G.sum(axis=0)


@pytest.mark.parametrize("pass_logits", [False, True])
@pytest.mark.parametrize("scale", [0.1, 1.0, 40.0, 1e3])
def test_fused_ce_loss_is_bit_exact(scale, pass_logits):
    gen = np.random.default_rng(int(scale * 10) + pass_logits)
    for C, d, n in ((2, 3, 1), (5, 8, 17), (12, 16, 128)):
        head = LinearHead(gen.normal(size=(C, d)) * scale, gen.normal(size=C))
        X = gen.normal(size=(n, d))
        y = gen.integers(0, C, n)
        Z = head.logits(X)
        Z_before = Z.copy()
        got = ce_loss(head, X, y, Z) if pass_logits else ce_loss(head, X, y)
        want = two_pass_ce_loss(head, X, y)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert Z.tobytes() == Z_before.tobytes()  # the caller's logits are read only


def formula_sgd_step(cfg, velocity, head, dW, db, step_index, total_steps):
    """sgd_step before the in-place update: new arrays for every term;
    returns the new velocity pair."""
    lr = cosine_lr(cfg.lr0, step_index, total_steps)
    vW = cfg.momentum * velocity[0] + (dW + cfg.weight_decay * head.W)
    vb = cfg.momentum * velocity[1] + (db + cfg.weight_decay * head.b)
    head.W -= lr * vW
    head.b -= lr * vb
    return vW, vb


def test_in_place_sgd_matches_formula():
    gen = np.random.default_rng(21)
    heads = [random_head(3, 5, seed=4), random_head(3, 5, seed=4)]
    cfg = CilConfig(lr0=0.1, momentum=0.9, weight_decay=0.02)
    velocities = [(np.zeros((3, 5)), np.zeros(3)) for _ in heads]
    total = 12
    for step in range(total):
        dW = gen.normal(size=heads[0].W.shape)
        db = gen.normal(size=heads[0].b.shape)
        grads = dW.tobytes(), db.tobytes()
        sgd_step(cfg, velocities[0], heads[0], dW, db, step, total)
        assert (dW.tobytes(), db.tobytes()) == grads  # gradients are only read
        velocities[1] = formula_sgd_step(cfg, velocities[1], heads[1], dW, db, step, total)
        assert heads[0].W.tobytes() == heads[1].W.tobytes()
        assert heads[0].b.tobytes() == heads[1].b.tobytes()
        assert velocities[0][0].tobytes() == velocities[1][0].tobytes()
        assert velocities[0][1].tobytes() == velocities[1][1].tobytes()


def test_check_finite_epoch_names_seed_step_and_epoch():
    head = random_head(2, 3)
    check_finite_epoch("CIL training", 1.5, head, 7, 2, 4)
    with pytest.raises(DivergenceError, match="at seed 7 step 2 epoch 4: loss is nan"):
        check_finite_epoch("CIL training", float("nan"), head, 7, 2, 4)
    head.W[1, 2] = np.inf
    with pytest.raises(DivergenceError, match="seed 7 step 2 epoch 4: head weights"):
        check_finite_epoch("CIL training", 1.5, head, 7, 2, 4)
