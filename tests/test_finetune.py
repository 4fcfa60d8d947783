import logging
import math

import numpy as np
import pytest

from cilbench.cil import CilConfig, CilModel, evaluate_accuracy, sgd_epochs, train_task
from cilbench.data import MemoryBuffer, split_tasks, step_rows
from cilbench.finetune import (
    BerConfig,
    _ber_batch,
    _hinge_energy_grads,
    finetune_step_loop,
    logitnorm_ce_loss,
    nter_loss,
    oter_loss,
    synth_old_mix,
    synth_pseudo_ood,
)
from cilbench.model import (
    DivergenceError,
    LinearHead,
    ce_loss,
    sgd_step,
)
from cilbench.numerics import RngStream, logsumexp_rows, softmax_rows
from cilbench.synthgen import SynthSpec, generate
from oracles import ber_total, head_bytes

CFG = BerConfig()


def test_energy_examples():
    assert -logsumexp_rows(np.array([[0.0, 0.0]]), 1.0)[0] == pytest.approx(-math.log(2), abs=1e-12)
    assert -logsumexp_rows(np.array([[-5.0]]), 1.0)[0] == pytest.approx(5.0, abs=1e-12)
    gen = np.random.default_rng(0)
    for _ in range(20):
        v = gen.normal(size=5) * 3
        tau = float(gen.uniform(0.3, 4.0))
        direct = -tau * math.log(sum(math.exp(x / tau) for x in v))
        assert -logsumexp_rows(v[None, :], tau)[0] == pytest.approx(direct, abs=1e-12)


def pseudo_ood_pairs(labels, gen):
    """The (i, j) pairs of the documented contract, drawn from ``gen``:
    seeded partners; up to 16 rounds in which every row whose partner
    shares its label draws a new one, in row order; then the rows still
    paired with their own label dropped.  ``gen`` is then where the betas
    start."""
    m = len(labels)
    partner = [int(j) for j in gen.permutation(m)]
    for _ in range(16):
        same = [i for i in range(m) if labels[i] == labels[partner[i]]]
        if not same:
            break
        for i, j in zip(same, gen.integers(m, size=len(same))):
            partner[i] = int(j)
    return [(i, partner[i]) for i in range(m) if labels[i] != labels[partner[i]]]


def test_pseudo_ood_pairs_have_distinct_labels():
    gen = np.random.default_rng(1)
    feats = gen.normal(size=(32, 6))
    labels = gen.integers(0, 4, 32)
    batch = synth_pseudo_ood(feats, labels, (1.0, 1.0), RngStream(0, "mix").gen)
    pairs = pseudo_ood_pairs(labels, RngStream(0, "mix").gen)
    assert len(pairs) > 0
    assert batch.rows.shape == (len(pairs), 6)
    for i, j in pairs:
        assert labels[i] != labels[j]


def test_pseudo_ood_rows_lie_on_segment():
    gen = np.random.default_rng(2)
    feats = gen.normal(size=(20, 4))
    labels = gen.integers(0, 3, 20)
    batch = synth_pseudo_ood(feats, labels, (2.0, 2.0), RngStream(1, "mix").gen)
    pairs = pseudo_ood_pairs(labels, RngStream(1, "mix").gen)
    assert batch.rows.shape[0] == len(pairs)
    for row, (i, j) in zip(batch.rows, pairs):
        lo = np.minimum(feats[i], feats[j])
        hi = np.maximum(feats[i], feats[j])
        assert np.all(row >= lo - 1e-12) and np.all(row <= hi + 1e-12)


def test_pseudo_ood_single_label_is_degenerate():
    feats = np.ones((8, 3))
    labels = np.zeros(8, dtype=int)
    gen = RngStream(2, "mix").gen
    batch = synth_pseudo_ood(feats, labels, (1.0, 1.0), gen)
    assert batch.rows.shape == (0, 3)
    # nothing was drawn
    assert gen.random() == RngStream(2, "mix").gen.random()


def test_pseudo_ood_deterministic():
    gen = np.random.default_rng(3)
    feats = gen.normal(size=(16, 3))
    labels = gen.integers(0, 3, 16)
    a = synth_pseudo_ood(feats, labels, (1.5, 0.5), RngStream(4, "m").gen)
    b = synth_pseudo_ood(feats, labels, (1.5, 0.5), RngStream(4, "m").gen)
    np.testing.assert_array_equal(a.rows, b.rows)
    pairs_a = pseudo_ood_pairs(labels, RngStream(4, "m").gen)
    assert pairs_a == pseudo_ood_pairs(labels, RngStream(4, "m").gen)
    assert a.rows.shape[0] == len(pairs_a)


def test_pseudo_ood_rows_are_the_pair_mixes_bit_for_bit():
    # the pairs of the documented contract, then one beta per kept pair from
    # the same generator, in row order
    gen = np.random.default_rng(7)
    dropped = 0
    cases = ((64, 0.3, (1.0, 1.0)), (40, 0.95, (2.0, 0.5)), (3, 0.5, (0.7, 1.3)))
    for m, p_major, beta_params in cases:
        feats = gen.normal(size=(m, 5)) * 10
        labels = np.where(gen.random(m) < p_major, 0, gen.integers(1, 4, m))
        labels[:2] = [0, 1]
        batch = synth_pseudo_ood(feats, labels, beta_params, RngStream(m, "mix").gen)
        oracle = RngStream(m, "mix").gen
        pairs = pseudo_ood_pairs(labels, oracle)
        betas = oracle.beta(*beta_params, size=len(pairs))
        dropped += m - len(pairs)
        assert batch.rows.shape == (len(pairs), 5)
        for row, (i, j), beta in zip(batch.rows, pairs, betas):
            assert row.tobytes() == (beta * feats[i] + (1.0 - beta) * feats[j]).tobytes()
    assert dropped > 0  # the drop path ran


def drawn_betas(beta_params, seed, m=50_000):
    """The betas synth_pseudo_ood draws on a 1-d two-class batch, each
    recovered from its row as (row - x_j) / (x_i - x_j)."""
    labels = np.arange(m) % 2
    feats = labels[:, None].astype(np.float64)
    rows = synth_pseudo_ood(feats, labels, beta_params, np.random.default_rng(seed)).rows
    pairs = np.array(pseudo_ood_pairs(labels, np.random.default_rng(seed)))
    assert rows.shape == (len(pairs), 1) and len(pairs) > 0.99 * m
    x_i, x_j = feats[pairs[:, 0], 0], feats[pairs[:, 1], 0]
    return (rows[:, 0] - x_j) / (x_i - x_j)


def test_pseudo_ood_betas_uniform_mean():
    betas = drawn_betas((1.0, 1.0), 123)
    assert abs(betas.mean() - 0.5) < 0.01
    assert betas.min() >= 0.0 and betas.max() <= 1.0


def test_pseudo_ood_betas_moments_2_2():
    # Beta(2,2): mean 1/2, var 1/20
    betas = drawn_betas((2.0, 2.0), 5)
    assert abs(betas.mean() - 0.5) < 0.01
    assert abs(betas.var() - 0.05) < 0.005


def test_pseudo_ood_betas_swap_symmetry():
    x = drawn_betas((2.0, 5.0), 9)
    y = 1.0 - drawn_betas((5.0, 2.0), 9)
    assert abs(x.mean() - y.mean()) < 0.01


def test_pseudo_ood_tiny_beta_shapes_give_finite_rows_on_segments():
    gen = np.random.default_rng(13)
    feats = gen.normal(size=(256, 4)) * 10
    labels = gen.integers(0, 4, 256)
    batch = synth_pseudo_ood(feats, labels, (1e-3, 1e-3), RngStream(3, "tiny").gen)
    pairs = pseudo_ood_pairs(labels, RngStream(3, "tiny").gen)
    assert batch.rows.shape == (len(pairs), 4)
    assert np.all(np.isfinite(batch.rows))
    for row, (i, j) in zip(batch.rows, pairs):
        lo = np.minimum(feats[i], feats[j])
        hi = np.maximum(feats[i], feats[j])
        assert np.all(row >= lo - 1e-12) and np.all(row <= hi + 1e-12)


def test_old_mix_endpoints_and_arithmetic():
    x = np.array([[1.0, 1.0]])
    m = np.array([[0.0, 0.0]])
    gen = RngStream(5, "om").gen
    np.testing.assert_allclose(synth_old_mix(x, m, 0.0, gen), m, atol=0)
    np.testing.assert_allclose(synth_old_mix(x, m, 1.0, gen), x, atol=0)
    out = synth_old_mix(x, m, 0.002, gen)
    np.testing.assert_allclose(out, [[0.002, 0.002]], atol=1e-15)


def test_old_mix_cycles_shorter_batch():
    gen = np.random.default_rng(6)
    x = gen.normal(size=(5, 3))
    m = gen.normal(size=(2, 3))
    out = synth_old_mix(x, m, 0.5, RngStream(6, "om").gen)
    assert out.shape[0] == 5
    # the documented index matching: the new rows' permutation, then the
    # memory rows', from one generator, each cycled
    oracle = RngStream(6, "om").gen
    new_idx = oracle.permutation(5)[np.arange(5) % 5]
    mem_idx = oracle.permutation(2)[np.arange(5) % 2]
    np.testing.assert_allclose(out, 0.5 * x[new_idx] + 0.5 * m[mem_idx], atol=1e-15)


def _inactive_id_rows(hinge):
    # energies comfortably on the inactive side of the p_in hinge
    if hinge == "literal":
        return np.zeros((3, 2))  # E = -log2, above p_in = -5
    return np.full((3, 2), 30.0)  # E ~ -30.7, below p_in


def _inactive_pseudo_rows(hinge):
    if hinge == "literal":
        return np.full((3, 2), 30.0)  # E ~ -30.7, below p_out = -27
    return np.zeros((3, 2))  # E = -log2, above p_out


@pytest.mark.parametrize("hinge", ["literal", "energy_paper"])
def test_nter_inactive_hinges_give_zero(hinge):
    head = LinearHead(np.eye(2), np.zeros(2))
    cfg = BerConfig(hinge_orientation=hinge)
    loss, grad = nter_loss(
        head, _inactive_id_rows(hinge), _inactive_pseudo_rows(hinge), cfg
    )
    assert loss == 0.0
    np.testing.assert_array_equal(grad[:, :-1], 0.0)
    np.testing.assert_array_equal(grad[:, -1], 0.0)


def test_nter_boundary_subgradient_zero():
    # single class, logit 5 -> E = -5 = p_in exactly
    head = LinearHead(np.array([[1.0]]), np.zeros(1))
    x = np.array([[5.0]])
    loss, grad = nter_loss(head, x, np.zeros((0, 1)), CFG)
    assert loss == 0.0
    np.testing.assert_array_equal(grad[:, :-1], 0.0)


def test_oter_hinge_values():
    head = LinearHead(np.array([[1.0]]), np.zeros(1))
    # E = -10 <= p_in: inactive
    assert oter_loss(head, np.array([[10.0]]), CFG)[0] == 0.0
    # E = -3 = p_in + 2: squared hinge is 4
    assert oter_loss(head, np.array([[3.0]]), CFG)[0] == pytest.approx(4.0, abs=1e-12)


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


def check_grads(head, fn_loss_grads, tol=1e-6):
    loss, grad = fn_loss_grads()
    dW, db = grad[:, :-1], grad[:, -1]
    num_W = central_diff(lambda: fn_loss_grads()[0], head.W)
    num_b = central_diff(lambda: fn_loss_grads()[0], head.b)
    scale = max(np.max(np.abs(num_W)), np.max(np.abs(num_b)), 1e-9)
    assert np.max(np.abs(dW - num_W)) / scale < tol
    assert np.max(np.abs(db - num_b)) / scale < tol


@pytest.mark.parametrize("hinge", ["literal", "energy_paper"])
def test_nter_gradient_matches_finite_differences(hinge):
    gen = np.random.default_rng(7)
    cfg = BerConfig(p_in=1.0, p_out=-1.0, hinge_orientation=hinge)
    for _ in range(10):
        C, d = int(gen.integers(2, 5)), int(gen.integers(2, 7))
        head = LinearHead(gen.normal(size=(C, d)), gen.normal(size=C))
        X_id = gen.normal(size=(5, d))
        X_ps = gen.normal(size=(4, d))
        check_grads(head, lambda: nter_loss(head, X_id, X_ps, cfg))


def test_oter_gradient_matches_finite_differences():
    gen = np.random.default_rng(8)
    cfg = BerConfig(p_in=1.0, p_out=-1.0)
    for _ in range(10):
        C, d = int(gen.integers(2, 5)), int(gen.integers(2, 7))
        head = LinearHead(gen.normal(size=(C, d)), gen.normal(size=C))
        X = gen.normal(size=(6, d))
        check_grads(head, lambda: oter_loss(head, X, cfg))


def test_logitnorm_gradient_matches_finite_differences():
    gen = np.random.default_rng(9)
    for _ in range(10):
        C, d = int(gen.integers(2, 5)), int(gen.integers(2, 7))
        head = LinearHead(gen.normal(size=(C, d)), gen.normal(size=C))
        X = gen.normal(size=(6, d))
        y = gen.integers(0, C, 6)
        check_grads(head, lambda: logitnorm_ce_loss(head, X, y, 0.04), tol=5e-6)


def test_composite_gradient_matches_finite_differences():
    gen = np.random.default_rng(10)
    cfg = BerConfig(p_in=1.0, p_out=-1.0, alpha=0.1)
    for _ in range(10):
        C, d = 3, int(gen.integers(2, 6))
        head = LinearHead(gen.normal(size=(C, d)), gen.normal(size=C))
        ce_X = gen.normal(size=(5, d))
        ce_y = gen.integers(0, C, 5)
        X_id = gen.normal(size=(4, d))
        X_ps = gen.normal(size=(3, d))
        mixed = gen.normal(size=(4, d))
        check_grads(
            head, lambda: ber_total(head, ce_X, ce_y, X_id, X_ps, mixed, cfg)
        )


def test_composite_reduces_to_ce():
    gen = np.random.default_rng(11)
    head = LinearHead(gen.normal(size=(3, 4)), gen.normal(size=3))
    X = gen.normal(size=(6, 4))
    y = gen.integers(0, 3, 6)
    base_loss, base_grad = ce_loss(head, X, y)
    base_dW, base_db = base_grad[:, :-1], base_grad[:, -1]
    # alpha = 0 kills both regularizers
    cfg0 = BerConfig(alpha=0.0)
    loss, grad = ber_total(head, X, y, X, np.zeros((0, 4)), None, cfg0)
    assert loss == base_loss
    np.testing.assert_array_equal(grad[:, :-1], base_dW)
    # alpha > 0 but hinges inactive: still CE
    quiet = np.zeros((4, 4))  # E = -log3 between p_out and p_in: both sides off?
    cfg = BerConfig(alpha=0.1, hinge_orientation="energy_paper", p_in=5.0, p_out=-27.0)
    loss2, grad2 = ber_total(head, X, y, quiet, np.zeros((0, 4)), None, cfg)
    assert loss2 == pytest.approx(base_loss, abs=1e-15)
    np.testing.assert_allclose(grad2[:, :-1], base_dW, atol=1e-15)
    # both terms switched off with active hinges and a replay batch: CE bit for bit
    X_ps = gen.normal(size=(5, 4))
    mixed = gen.normal(size=(4, 4))
    on = ber_total(head, X, y, X, X_ps, mixed, BerConfig(alpha=0.1))
    assert on[0] != base_loss
    off = BerConfig(alpha=0.1, use_nter=False, use_oter=False)
    loss3, grad3 = ber_total(head, X, y, X, X_ps, mixed, off)
    assert loss3 == base_loss
    np.testing.assert_array_equal(grad3[:, :-1], base_dW)
    np.testing.assert_array_equal(grad3[:, -1], base_db)


def small_trained_model(seed=0, tasks_done=2):
    spec = SynthSpec(
        n_classes=8, dim=16, n_train_per_class=60, n_test_per_class=25,
        n_ood_per_set=20, seed=seed,
    )
    train, test, _ = generate(spec)
    stream = split_tasks(train, test, 4)
    model = CilModel.fresh(16)
    mem_hist = []
    mem = MemoryBuffer(80)
    rng = RngStream(seed, "ft-cil")
    cfg = CilConfig(epochs_per_task=10, batch_size=64)
    for t in range(1, tasks_done + 1):
        mem_hist.append(mem)
        model, mem = train_task(model, stream, t, mem, cfg, rng)
    return model, stream, mem_hist


@pytest.mark.parametrize("method", ["plain", "logitnorm", "t2fnorm", "ber"])
def test_finetune_freezes_base_model(method):
    model, stream, mems = small_trained_model()
    before_head = head_bytes(model.head)
    cfg = BerConfig(epochs=3, batch_size=64)
    tuned = finetune_step_loop(model, stream, 2, mems[1], method, cfg, RngStream(1, "ft"))
    assert head_bytes(model.head) == before_head
    assert tuned.seen_classes == model.seen_classes
    assert tuned.head.n_classes == model.head.n_classes


def test_plain_finetune_matches_base_accuracy():
    model, stream, mems = small_trained_model(seed=3)
    cfg = BerConfig(epochs=10, batch_size=64)
    f_model = finetune_step_loop(model, stream, 2, mems[1], "plain", cfg, RngStream(2, "ft"))
    test = stream.test_through(2)
    acc_h = evaluate_accuracy(model, *test)
    acc_f = evaluate_accuracy(f_model, *test)
    assert abs(acc_h - acc_f) <= 0.02


def test_ber_t1_empty_memory_warns_and_runs(caplog):
    model, stream, mems = small_trained_model(seed=4, tasks_done=1)
    sink: list = []
    cfg = BerConfig(epochs=2, batch_size=64)
    with caplog.at_level(logging.DEBUG, logger="cilbench.finetune"):
        tuned = finetune_step_loop(
            model, stream, 1, MemoryBuffer(0), "ber", cfg, RngStream(3, "ft"), sink
        )
    assert any("warning" in e for e in sink)
    assert tuned.head.n_classes == 4
    # an empty memory is expected at step 1: logged at debug level, naming the seed
    [rec] = [r for r in caplog.records if "empty replay memory" in r.getMessage()]
    assert rec.levelno == logging.DEBUG
    assert "seed 3 step 1" in rec.getMessage()


def separate_loop_finetune(model, stream, t, mem, method, cfg, rng, log_sink):
    """finetune_step_loop with its own epoch loop and its own row assembly
    (the memory's rows of the stream's training set gathered class by
    class), as it was before it shared the CIL epoch loop."""
    task_rows, task_y = step_rows(stream, t, MemoryBuffer(0))
    task_x = task_rows.widen()
    row_of = {c: i for i, c in enumerate(model.seen_classes)}
    xs = [stream.train_x[np.asarray(mem.entries[c], dtype=np.int64)]
          for c in sorted(mem.entries) if mem.entries[c]]
    ys = [np.full(len(mem.entries[c]), c, dtype=np.int64) for c in sorted(mem.entries)
          if mem.entries[c]]
    mem_X_raw = np.concatenate(xs) if xs else np.zeros((0, task_x.shape[1]))
    mem_y = np.concatenate(ys) if ys else np.zeros(0, dtype=np.int64)
    Z_new = task_x
    y_new = np.array([row_of[int(c)] for c in task_y], dtype=np.int64)
    Z_mem = mem_X_raw
    y_mem = np.array([row_of[int(c)] for c in mem_y], dtype=np.int64)

    def t2f(Z, tau):
        norms = np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-12)
        return Z / (norms * tau)

    if method == "t2fnorm":
        Z_new = t2f(Z_new, cfg.t2f_tau)
        if Z_mem.size:
            Z_mem = t2f(Z_mem, cfg.t2f_tau)
    head = model.head.clone()
    velocity = np.zeros_like(head.params)
    if method == "ber":
        if Z_mem.shape[0] == 0:
            log_sink.append({"task": t, "warning": "empty memory, old-task term skipped"})
        X, y, label = Z_new, y_new, "ber-epoch"
        gen = rng.child(f"ber-batches-t{t}").gen

        def objective(bx, by):
            return _ber_batch(head, bx, by, Z_mem, y_mem, cfg, gen)
    else:
        X = np.concatenate([Z_new, Z_mem]) if Z_mem.size else Z_new
        y = np.concatenate([y_new, y_mem]) if Z_mem.size else y_new
        label = "ft-epoch"

        def objective(bx, by):
            if method == "logitnorm":
                loss, grad = logitnorm_ce_loss(head, bx, by, cfg.logitnorm_tau)
            else:
                loss, grad = ce_loss(head, bx, by)
            return loss, 0.0, 0.0, grad

    n = X.shape[0]
    iters = math.ceil(n / cfg.batch_size)
    total = cfg.epochs * iters
    for epoch in range(cfg.epochs):
        perm = rng.child(f"{label}-t{t}-{epoch}").gen.permutation(n)
        sums = {"ce": 0.0, "l_n": 0.0, "l_o": 0.0}
        for it in range(iters):
            sel = perm[it * cfg.batch_size : (it + 1) * cfg.batch_size]
            l_ce, l_n, l_o, grad = objective(X[sel], y[sel])
            sgd_step(cfg, velocity, head, grad, epoch * iters + it, total)
            sums["ce"] += l_ce
            sums["l_n"] += l_n
            sums["l_o"] += l_o
        log_sink.append({"task": t, "epoch": epoch, **{k: v / iters for k, v in sums.items()}})
    return head


@pytest.mark.parametrize("method", ["plain", "logitnorm", "t2fnorm", "ber"])
def test_shared_epoch_loop_matches_separate_loop(method):
    model, stream, mems = small_trained_model(seed=7)
    cfg = BerConfig(epochs=3, batch_size=48, hinge_orientation="energy_paper")
    for t in (1, 2):
        assert (sum(len(v) for v in mems[t - 1].entries.values()) == 0) == (t == 1)
        shared_log, separate_log = [], []
        shared = finetune_step_loop(
            model, stream, t, mems[t - 1], method, cfg, RngStream(9, "ft"), shared_log
        )
        separate = separate_loop_finetune(
            model, stream, t, mems[t - 1], method, cfg, RngStream(9, "ft"), separate_log
        )
        assert shared.head.W.tobytes() == separate.W.tobytes()
        assert shared.head.b.tobytes() == separate.b.tobytes()
        assert shared_log == separate_log
        assert len([e for e in shared_log if "epoch" in e]) == cfg.epochs


@pytest.mark.parametrize("method", ["plain", "logitnorm"])
def test_one_sgd_epochs_call_trains_the_head(method):
    # sgd_epochs runs every epoch before it returns: nothing of its result
    # is iterated here, yet the head is the separate loop's
    model, stream, mems = small_trained_model(seed=7)
    cfg = BerConfig(epochs=3, batch_size=48)
    t = 2
    rows, labels = step_rows(stream, t, mems[t - 1])
    X = rows.widen()
    y = model.head_rows(labels)
    head = model.head.clone()

    def objective(sel):
        if method == "logitnorm":
            loss, grad = logitnorm_ce_loss(head, X[sel], y[sel], cfg.logitnorm_tau)
        else:
            loss, grad = ce_loss(head, X[sel], y[sel])
        return loss, 0.0, 0.0, grad

    rng = RngStream(9, "ft")
    sums, iters = sgd_epochs(
        head, X.shape[0], objective, cfg, cfg.epochs, rng, f"ft-epoch-t{t}", "fine-tuning", t
    )
    separate_log = []
    separate = separate_loop_finetune(
        model, stream, t, mems[t - 1], method, cfg, RngStream(9, "ft"), separate_log
    )
    assert head_bytes(head) == head_bytes(separate)
    # one sum per term and epoch, over iters batches
    assert [
        {"task": t, "epoch": e, **{k: v / iters for k, v in zip(("ce", "l_n", "l_o"), terms)}}
        for e, terms in enumerate(sums)
    ] == separate_log


def test_ber_widens_id_ood_score_gap():
    # mean(ID energy score) - mean(OOD energy score) at the final step,
    # 5-seed average: the regularized head must beat plain fine-tuning
    from cilbench.posthoc import score_batch

    gaps = {"plain": [], "ber": []}
    for seed in range(5):
        spec = SynthSpec(
            n_classes=12, dim=24, n_train_per_class=100, n_test_per_class=25,
            n_ood_per_set=200, seed=seed,
        )
        train, test, suite = generate(spec)
        stream = split_tasks(train, test, 4)
        model = CilModel.fresh(spec.dim)
        mem = MemoryBuffer(120)
        rng = RngStream(seed, "gap")
        cil = CilConfig(epochs_per_task=12)
        mems = []
        for t in range(1, stream.num_steps + 1):
            mems.append(mem)
            model, mem = train_task(model, stream, t, mem, cil, rng)
        T = stream.num_steps
        id_X, _ = stream.test_through(T)
        ood_X = np.concatenate([e.dataset.features for e in suite.entries])
        for method, kw in (("plain", {}), ("ber", {"hinge_orientation": "energy_paper"})):
            fm = finetune_step_loop(
                model, stream, T, mems[-1], method, BerConfig(**kw), rng.child(method)
            )
            id_s = score_batch("energy", fm, None, id_X)
            ood_s = score_batch("energy", fm, None, ood_X)
            gaps[method].append(id_s.mean() - ood_s.mean())
    assert np.mean(gaps["ber"]) > np.mean(gaps["plain"])


def test_finetune_epoch_log_components():
    model, stream, mems = small_trained_model(seed=5)
    sink: list = []
    cfg = BerConfig(epochs=2, batch_size=64)
    finetune_step_loop(model, stream, 2, mems[1], "ber", cfg, RngStream(4, "ft"), sink)
    epochs = [e for e in sink if "epoch" in e]
    assert len(epochs) == 2
    assert {"ce", "l_n", "l_o"} <= set(epochs[0])


def test_ber_log_has_one_record_per_epoch_with_switched_terms():
    model, stream, mems = small_trained_model(seed=5)
    for t, mem, kw in ((1, mems[0], {}), (2, mems[1], {"use_nter": False})):
        sink: list = []
        cfg = BerConfig(epochs=3, batch_size=64, **kw)
        finetune_step_loop(model, stream, t, mem, "ber", cfg, RngStream(4, "ft"), sink)
        epochs = [e for e in sink if "epoch" in e]
        assert [e["epoch"] for e in epochs] == [0, 1, 2]
        assert all(e["task"] == t and e["ce"] > 0 for e in epochs)
        if t == 1:  # no replay memory yet: no old-task term
            assert all(e["l_o"] == 0.0 for e in epochs)
            assert any(e["l_n"] > 0 for e in epochs)
        else:
            assert all(e["l_n"] == 0.0 for e in epochs)
            assert any(e["l_o"] > 0 for e in epochs)


def two_pass_hinge_grads(head, X, margin, side, tau):
    """_hinge_energy_grads before the fused kernel: the energy, then softmax_rows."""
    Z = head.logits(X)
    E = -logsumexp_rows(Z, tau)
    a = (margin - E) if side == "below" else (E - margin)
    active = np.maximum(a, 0.0)
    loss = float((active**2).mean())
    dE = 2.0 * active / X.shape[0]
    if side == "below":
        dE = -dE
    G = -dE[:, None] * softmax_rows(Z, tau)
    return loss, G.T @ X, G.sum(axis=0)


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
def test_fused_hinge_grads_are_bit_exact(side, tau):
    gen = np.random.default_rng(int(tau * 10) + (side == "below"))
    for C, d, n, scale in ((3, 4, 1, 1.0), (6, 8, 40, 5.0), (10, 16, 128, 30.0)):
        head = LinearHead(gen.normal(size=(C, d)) * scale, gen.normal(size=C))
        X = gen.normal(size=(n, d))
        # a margin at the median energy leaves about half the rows active
        margin = float(np.median(-logsumexp_rows(head.logits(X), tau)))
        got = _hinge_energy_grads(head, X, margin, side, tau)
        want = two_pass_hinge_grads(head, X, margin, side, tau)
        assert got[0] == want[0]
        assert got[1][:, :-1].tobytes() == want[1].tobytes()
        assert got[1][:, -1].tobytes() == want[2].tobytes()


def test_finetune_divergence_names_seed_step_and_epoch():
    model, stream, _ = small_trained_model(seed=2, tasks_done=1)
    cfg = BerConfig(lr0=1e6, epochs=30, hinge_orientation="energy_paper")
    with np.errstate(all="ignore"), pytest.raises(
        DivergenceError, match=r"^ber fine-tuning diverged at seed 5 step 1 epoch \d+: "
    ):
        finetune_step_loop(model, stream, 1, MemoryBuffer(0), "ber", cfg, RngStream(5, "ft"))
