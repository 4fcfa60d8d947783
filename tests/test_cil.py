import math
import tracemalloc

import numpy as np
import pytest

from cilbench import cil
from cilbench.cil import (
    CilConfig,
    CilModel,
    evaluate_accuracy,
    train_task,
)
from cilbench.data import (
    FeatureDataset,
    MemoryBuffer,
    rebalance_memory,
    split_tasks,
    step_rows,
)
from cilbench.model import (
    DivergenceError,
    LinearHead,
    cosine_lr,
    expand_head,
    weight_align,
)
from cilbench.numerics import RngStream, softmax_rows
from cilbench.posthoc import score_batch
from cilbench.synthgen import SynthSpec, generate
from oracles import head_bytes, log_softmax_rows

FAST = CilConfig(epochs_per_task=10, batch_size=64)


def two_class_gaussians(n=80, seed=0):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n, 4)) * 0.5 + np.array([5.0, 0, 0, 0])
    b = gen.normal(size=(n, 4)) * 0.5 + np.array([-5.0, 0, 0, 0])
    feats = np.concatenate([a, b])
    labels = np.array([0] * n + [1] * n)
    return FeatureDataset(feats, labels, 2)


def small_stream(seed=0, k=2):
    spec = SynthSpec(
        n_classes=8, dim=16, n_train_per_class=60, n_test_per_class=25,
        n_ood_per_set=20, seed=seed,
    )
    train, test, _ = generate(spec)
    return split_tasks(train, test, k)


def run_stream(stream, cfg, budget, seed):
    model = CilModel.fresh(stream.train_x.shape[1])
    mem = MemoryBuffer(budget)
    rng = RngStream(seed, "cil-test")
    per_task_acc = []
    for t in range(1, stream.num_steps + 1):
        model, mem = train_task(model, stream, t, mem, cfg, rng)
        per_task_acc.append(evaluate_accuracy(model, *stream.test_through(t)))
    return model, per_task_acc


def test_single_separable_task_reaches_high_accuracy():
    ds = two_class_gaussians()
    stream = split_tasks(ds, two_class_gaussians(seed=1), 2)
    model, accs = run_stream(stream, FAST, budget=0, seed=0)
    assert accs[0] >= 0.99


def test_replay_beats_no_replay_on_first_task():
    stream = small_stream(seed=4)
    cfg = FAST
    _, _ = run_stream(stream, cfg, budget=0, seed=1)
    model_none = CilModel.fresh(16)
    model_rep = CilModel.fresh(16)
    mem_none, mem_rep = MemoryBuffer(0), MemoryBuffer(10 * 8)
    rng_a, rng_b = RngStream(1, "a"), RngStream(1, "a")
    for t in range(1, stream.num_steps + 1):
        model_none, mem_none = train_task(model_none, stream, t, mem_none, cfg, rng_a)
        model_rep, mem_rep = train_task(model_rep, stream, t, mem_rep, cfg, rng_b)
    task1 = stream.test_through(1)
    acc_none = evaluate_accuracy(model_none, *task1)
    acc_rep = evaluate_accuracy(model_rep, *task1)
    assert acc_none < acc_rep


def test_forgetting_is_monotone_without_replay():
    # task-1 accuracy never recovers once replay is off (5-seed mean)
    curves = []
    for seed in range(5):
        stream = small_stream(seed=seed)
        model = CilModel.fresh(16)
        mem = MemoryBuffer(0)
        rng = RngStream(seed, "forget")
        accs = []
        for t in range(1, stream.num_steps + 1):
            model, mem = train_task(model, stream, t, mem, FAST, rng)
            accs.append(evaluate_accuracy(model, *stream.test_through(1)))
        curves.append(accs)
    mean = np.mean(curves, axis=0)
    assert all(a >= b - 1e-9 for a, b in zip(mean, mean[1:]))


def test_distill_weight_zero_is_bitwise_replay():
    stream = small_stream(seed=2)
    cfg_plain = CilConfig(epochs_per_task=4, batch_size=64, method="replay")
    cfg_distill0 = CilConfig(
        epochs_per_task=4, batch_size=64, method="replay_distill", distill_weight=0.0
    )
    m1, _ = run_stream(stream, cfg_plain, budget=40, seed=3)
    m2, _ = run_stream(stream, cfg_distill0, budget=40, seed=3)
    assert head_bytes(m1.head) == head_bytes(m2.head)


def test_distillation_and_wa_paths_run():
    stream = small_stream(seed=5)
    cfg = CilConfig(epochs_per_task=4, batch_size=64, method="replay_distill_wa")
    model, accs = run_stream(stream, cfg, budget=80, seed=0)
    assert model.head.n_classes == 8
    assert accs[-1] > 0.5


def test_evaluate_accuracy_matches_rowwise_oracle():
    gen = np.random.default_rng(9)
    head = LinearHead(gen.normal(size=(4, 6)), gen.normal(size=4))
    model = CilModel(head)
    feats = gen.normal(size=(50, 6))
    labels = gen.integers(0, 4, 50)
    expect = 0
    for i in range(50):
        logits = head.W @ feats[i] + head.b
        best = 0
        for j in range(1, 4):
            if logits[j] > logits[best]:
                best = j
        expect += int(best == labels[i])
    assert evaluate_accuracy(model, feats, labels) == pytest.approx(expect / 50)


def test_evaluate_accuracy_tie_break_and_unseen_label():
    head = LinearHead(np.zeros((2, 3)), np.zeros(2))
    model = CilModel(head)
    feats = np.ones((4, 3))
    # all logits tie, every prediction is head row 0
    assert evaluate_accuracy(model, feats, np.array([0, 0, 1, 1])) == 0.5
    # a label is a head row: one outside [0, 2) names no row of this head
    for labels in ([0, 0, 2, 2], [0, -1, 1, 1]):
        with pytest.raises(ValueError, match="head rows"):
            evaluate_accuracy(model, feats, np.array(labels))


def test_average_incremental_accuracy_hand_mean():
    stream = small_stream(seed=6, k=3)
    _, accs = run_stream(stream, FAST, budget=60, seed=2)
    assert len(accs) == 3
    assert float(np.mean(accs)) == pytest.approx(sum(accs) / 3.0)


def test_old_class_confidence_drops_below_new():
    # final-step confidence on old-class test rows < new-class rows (5 seeds)
    old_conf, new_conf = [], []
    for seed in range(5):
        stream = small_stream(seed=10 + seed)
        model = CilModel.fresh(16)
        mem = MemoryBuffer(16)  # tight replay, forgetting expected
        rng = RngStream(seed, "bias")
        for t in range(1, stream.num_steps + 1):
            model, mem = train_task(model, stream, t, mem, FAST, rng)
        test_x, test_y = stream.test_through(stream.num_steps)
        conf = score_batch("msp", model, None, test_x)
        is_new = test_y >= model.head.n_classes - len(stream.classes[-1])
        old_conf.append(conf[~is_new].mean())
        new_conf.append(conf[is_new].mean())
    assert np.mean(old_conf) < np.mean(new_conf)


def test_training_log_entries():
    stream = small_stream(seed=7)
    model = CilModel.fresh(16)
    log: list = []
    cfg = CilConfig(epochs_per_task=3, batch_size=64)
    model, _ = train_task(model, stream, 1, MemoryBuffer(0), cfg, RngStream(0), log)
    assert len(log) == 3
    assert {"task", "epoch", "loss", "lr", "train_acc"} <= set(log[0])


def per_batch_log_distill_grads(Z_new, P_old, T):
    """_distill_grads before log(P_old) was taken once per task."""
    n, c_old = P_old.shape
    Q = softmax_rows(Z_new[:, :c_old], T)
    logq = np.log(np.maximum(Q, 1e-300))
    logp = np.log(np.maximum(P_old, 1e-300))
    loss = float((P_old * (logp - logq)).sum(axis=1).mean() * T * T)
    G = np.zeros_like(Z_new)
    G[:, :c_old] = T * (Q - P_old) / n
    return loss, G


def two_forward_train_task(model, stream, t, mem, cfg, rng, log_sink):
    """train_task before the one-forward batch: ce_loss with two exps, a
    second forward for distillation and log(P_old) per batch, the
    out-of-place momentum update, and a full-data forward per epoch for
    accuracy.  Like train_task, it adds the weighted distillation gradient
    (zero-padded to every logit) to the CE logit gradient and multiplies
    the sum out once.  The log holds that
    full-data accuracy as ``full_acc`` and the running accuracy of the
    batches, each before its update, as ``batch_acc``."""
    classes = stream.classes[t - 1]
    old_count = model.head.n_classes
    old_head = model.head.clone() if (cfg.method != "replay" and t > 1) else None
    head = expand_head(model.head, len(classes), rng.child(f"init-t{t}"))
    seen = stream.classes_through(t)
    row_of = {c: i for i, c in enumerate(seen)}
    rows, _ = step_rows(stream, t, mem)
    X = rows.widen()
    y = stream.train_y[rows.index]
    y_rows = np.array([row_of[int(c)] for c in y], dtype=np.int64)
    if old_head is not None:
        P_old = softmax_rows(old_head.logits(X), cfg.distill_temperature)
    n = X.shape[0]
    iters = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs_per_task * iters
    vW, vb = np.zeros_like(head.W), np.zeros_like(head.b)
    step = 0
    for epoch in range(cfg.epochs_per_task):
        perm = rng.child(f"epoch-t{t}-{epoch}").gen.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for it in range(iters):
            sel = perm[it * cfg.batch_size : (it + 1) * cfg.batch_size]
            bx, by = X[sel], y_rows[sel]
            Z = head.logits(bx)
            correct += int((np.argmax(Z, axis=1) == by).sum())
            m = bx.shape[0]
            loss = float(-log_softmax_rows(Z)[np.arange(m), by].mean())
            G = softmax_rows(Z)
            G[np.arange(m), by] -= 1.0
            G /= m
            if old_head is not None and cfg.distill_weight != 0.0:
                dl, Gd = per_batch_log_distill_grads(
                    head.logits(bx), P_old[sel], cfg.distill_temperature
                )
                loss += cfg.distill_weight * dl
                G += cfg.distill_weight * Gd  # zero-padded: one product for both terms
            dW, db = G.T @ bx, G.sum(axis=0)
            lr = cosine_lr(cfg.lr0, step, total_steps)
            vW = cfg.momentum * vW + (dW + cfg.weight_decay * head.W)
            vb = cfg.momentum * vb + (db + cfg.weight_decay * head.b)
            head.W -= lr * vW
            head.b -= lr * vb
            epoch_loss += loss
            step += 1
        log_sink.append({
            "task": t,
            "epoch": epoch,
            "loss": epoch_loss / iters,
            "lr": cosine_lr(cfg.lr0, step, total_steps),
            "full_acc": float((np.argmax(head.logits(X), axis=1) == y_rows).mean()),
            "batch_acc": correct / n,
        })
    if cfg.method == "replay_distill_wa" and t > 1:
        head = weight_align(head, list(range(old_count)), list(range(old_count, len(seen))))
    new_mem = rebalance_memory(mem, stream, t)
    return CilModel(head), new_mem


def test_one_forward_training_matches_two_forward_loop():
    stream = small_stream(seed=9)
    cfg = CilConfig(epochs_per_task=5, batch_size=48, method="replay_distill_wa")
    fast = slow = CilModel.fresh(16)
    fast_mem = slow_mem = MemoryBuffer(40)
    for t in range(1, stream.num_steps + 1):
        fast_log, slow_log = [], []
        fast, fast_mem = train_task(fast, stream, t, fast_mem, cfg, RngStream(4, "cil"), fast_log)
        slow, slow_mem = two_forward_train_task(
            slow, stream, t, slow_mem, cfg, RngStream(4, "cil"), slow_log
        )
        assert fast.head.W.tobytes() == slow.head.W.tobytes()
        assert fast.head.b.tobytes() == slow.head.b.tobytes()
        assert fast_mem.entries == slow_mem.entries
        assert len(fast_log) == len(slow_log) == cfg.epochs_per_task
        for got, want in zip(fast_log, slow_log):
            assert (got["task"], got["epoch"], got["loss"], got["lr"]) == (
                want["task"], want["epoch"], want["loss"], want["lr"]
            )
            assert 0.0 <= got["train_acc"] <= 1.0
            assert got["train_acc"] == want["batch_acc"]
    # the running batch accuracy is not the end-of-epoch full-data pass
    assert any(g["train_acc"] != w["full_acc"] for g, w in zip(fast_log, slow_log))


def test_distilling_batch_gradient_matches_finite_differences(monkeypatch):
    # the objective train_task hands to sgd_epochs, at step 2 of a distill
    # run: its grad must be the gradient of its loss, CE + w * KD, so
    # the one product of the merged logit gradients misses neither term
    stream = small_stream(seed=3)
    cfg = CilConfig(
        epochs_per_task=2, batch_size=64, method="replay_distill",
        distill_weight=0.7, distill_temperature=2.0,
    )
    rng = RngStream(5, "cil")
    model, mem = train_task(CilModel.fresh(16), stream, 1, MemoryBuffer(40), cfg, rng)
    seen = {}
    real = cil.sgd_epochs

    def spy(head, n, objective, *args):
        seen.update(head=head, objective=objective)
        return real(head, n, objective, *args)

    monkeypatch.setattr(cil, "sgd_epochs", spy)
    train_task(model, stream, 2, mem, cfg, rng)
    head, objective = seen["head"], seen["objective"]
    sel = np.arange(0, 64)
    loss, _, grad = objective(sel)
    h = 1e-6

    def central(param, pos):
        keep = param[pos]
        param[pos] = keep + h
        up = objective(sel)[0]
        param[pos] = keep - h
        down = objective(sel)[0]
        param[pos] = keep
        return (up - down) / (2 * h)

    fd_W = np.array(
        [[central(head.W, (i, j)) for j in range(head.dim)] for i in range(head.n_classes)]
    )
    fd_b = np.array([central(head.b, (i,)) for i in range(head.n_classes)])
    np.testing.assert_allclose(grad[:, :-1], fd_W, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(grad[:, -1], fd_b, rtol=1e-5, atol=1e-8)
    assert objective(sel)[0] == loss  # the probes left the head as it was


def test_training_divergence_names_seed_step_and_epoch():
    stream = small_stream(seed=7, k=4)
    cfg = CilConfig(epochs_per_task=30, batch_size=64, lr0=1e6)
    model = CilModel.fresh(16)
    with np.errstate(all="ignore"), pytest.raises(
        DivergenceError, match=r"^CIL training diverged at seed 3 step 1 epoch \d+: "
    ):
        train_task(model, stream, 1, MemoryBuffer(0), cfg, RngStream(3, "cil"))



def test_a_distilling_step_holds_its_rows_and_its_targets_once():
    # the distillation targets' one logits product reads the step rows
    # widened whole, which are freed when it returns, and batches are read
    # through the step's view.  Rows widened for the whole step, beside the
    # logits and the softmax's own temporaries, reach widened + 3 * targets.
    spec = SynthSpec(n_classes=100, dim=256, n_train_per_class=100, n_test_per_class=1,
                     n_ood_per_set=1, seed=0)
    train, test, _ = generate(spec)
    stream = split_tasks(train, test, 50)
    cfg = CilConfig(epochs_per_task=1, batch_size=128, method="replay_distill")
    rng = RngStream(0, "mem")
    model, mem = train_task(CilModel.fresh(256), stream, 1, MemoryBuffer(1000), cfg, rng)
    n, d = step_rows(stream, 2, mem)[0].shape
    c_old = model.head.n_classes
    assert (n, d, c_old) == (6000, 256, 50)
    tracemalloc.start()
    try:
        train_task(model, stream, 2, mem, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widened, targets, batch = 8 * n * d, 8 * n * c_old, 8 * cfg.batch_size * d
    # the slack covers the expanded head, the step's row numbers and labels
    # and a batch's work
    assert peak < widened + targets + 3 * batch
