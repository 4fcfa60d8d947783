"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Expensive five-seed trainings are shared
through module fixtures; their build time is charged to every criterion
that uses them, so the runtime bounds stay conservative."""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cilbench.cil import CilConfig, CilModel, evaluate_accuracy, train_task
from cilbench.data import MemoryBuffer, ood_subset, split_tasks
from cilbench.finetune import BerConfig, finetune_step_loop, nter_loss, oter_loss
from cilbench.metrics import auroc, average_precision, fpr_at_tpr95
from cilbench.model import LinearHead, ce_loss
from cilbench.numerics import RngStream, l2_rows, logsumexp_rows, softmax_rows
from cilbench.posthoc import SCORER_NAMES, PosthocParams, fit_scorer, score_batch
from cilbench.protocol import RunConfig, emit_report, run_benchmark
from cilbench.synthgen import SynthSpec, generate
from oracles import ber_total

REPO = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 3, 4)
DEFAULT_CIL = CilConfig()
REPLAY_BUDGET = 200  # 10 exemplars per class on the default 20-class spec
STEP_SIZE = 4  # 5 tasks on the default spec
# orientation selected by the ablation: hinges read in the energy-margin
# inequality direction (see the finetune module docstring)
SELECTED_ORIENTATION = "energy_paper"


def report_line(num, desc, elapsed, limit):
    print(f"ACCEPTANCE {num:>2}: PASS  ({elapsed:6.2f}s < {limit}s)  {desc}")
    assert elapsed < limit


def train_full_stream(seed, budget, cil_cfg=DEFAULT_CIL):
    spec = SynthSpec(seed=seed)
    train, test, suite = generate(spec)
    stream = split_tasks(train, test, STEP_SIZE)
    model = CilModel.fresh(spec.dim)
    mem = MemoryBuffer(budget)
    rng = RngStream(seed, "acc")
    mems = []
    for t in range(1, stream.num_steps + 1):
        mems.append(mem)
        model, mem = train_task(model, stream, t, mem, cil_cfg, rng)
    return model, stream, suite, mems


@pytest.fixture(scope="module")
def forgetting_runs():
    t0 = time.perf_counter()
    out = []
    for seed in SEEDS:
        model_none, stream, _, _ = train_full_stream(seed, budget=0)
        model_rep, _, suite, _ = train_full_stream(seed, budget=REPLAY_BUDGET)
        out.append(
            {
                "seed": seed,
                "stream": stream,
                "suite": suite,
                "replay_model": model_rep,
                "acc1_none": evaluate_accuracy(model_none, stream.test_through(1)),
                "acc1_replay": evaluate_accuracy(model_rep, stream.test_through(1)),
            }
        )
    return out, time.perf_counter() - t0


def test_criterion_1_metric_oracles():
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    for _ in range(500):
        n1 = int(gen.integers(2, 301))
        n2 = int(gen.integers(2, 301))
        a = gen.integers(0, 40, n1).astype(float)
        b = gen.integers(0, 40, n2).astype(float)

        gt = (a[:, None] > b[None, :]).sum() + 0.5 * (a[:, None] == b[None, :]).sum()
        assert auroc(a, b) == gt / (n1 * n2)

        need = -((-19 * n1) // 20)
        theta = np.sort(a)[::-1][need - 1]
        cands = np.sort(np.unique(a))[::-1]
        tprs = (a[None, :] >= cands[:, None]).mean(axis=1)
        theta_scan = cands[np.argmax(tprs >= 0.95)]
        assert theta == theta_scan
        assert fpr_at_tpr95(a, b) == (b >= theta_scan).mean()

        rows = sorted(
            [(s, 0) for s in a] + [(s, 1) for s in b], key=lambda r: (r[0], r[1])
        )
        tp, ap = 0, 0.0
        for k, (_, flag) in enumerate(rows, 1):
            if flag:
                tp += 1
                ap += tp / k
        assert abs(average_precision(a, b) - ap / n2) <= 1e-12
    report_line(1, "metrics match brute-force oracles on 500 instances", time.perf_counter() - t0, 10)


def _central_diff(fn, arr, eps=1e-6):
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


def _grad_ok(head, fn, tol=1e-6):
    _, grad = fn()
    dW, db = grad[:, :-1], grad[:, -1]
    num_W = _central_diff(lambda: fn()[0], head.W)
    num_b = _central_diff(lambda: fn()[0], head.b)
    scale = max(np.max(np.abs(num_W)), np.max(np.abs(num_b)), 1e-9)
    return (
        np.max(np.abs(dW - num_W)) / scale < tol
        and np.max(np.abs(db - num_b)) / scale < tol
    )


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    gen = np.random.default_rng(202)
    checked = 0
    while checked < 100:
        C = int(gen.integers(2, 6))
        d = int(gen.integers(2, 9))
        head = LinearHead(gen.normal(size=(C, d)), gen.normal(size=C))
        X = gen.normal(size=(5, d))
        y = gen.integers(0, C, 5)
        X_id = gen.normal(size=(4, d))
        X_ps = gen.normal(size=(3, d))
        X_mx = gen.normal(size=(4, d))
        cfgs = [
            BerConfig(p_in=1.0, p_out=-1.0, hinge_orientation="literal"),
            BerConfig(p_in=1.0, p_out=-1.0, hinge_orientation="energy_paper"),
        ]
        # keep hinge activations away from the kink so the FD oracle is clean
        acts = []
        for rows in (X_id, X_ps, X_mx):
            acts.extend(np.abs(-logsumexp_rows(head.logits(rows), 1.0) - 1.0))
            acts.extend(np.abs(-logsumexp_rows(head.logits(rows), 1.0) + 1.0))
        if min(acts) < 1e-3:
            continue
        checked += 1
        assert _grad_ok(head, lambda: ce_loss(head, X, y))
        from cilbench.finetune import logitnorm_ce_loss

        assert _grad_ok(head, lambda: logitnorm_ce_loss(head, X, y, 0.04), tol=5e-6)
        Xt = l2_rows(X, 0.1)
        assert _grad_ok(head, lambda: ce_loss(head, Xt, y))
        for cfg in cfgs:
            assert _grad_ok(head, lambda: nter_loss(head, X_id, X_ps, cfg))
            assert _grad_ok(head, lambda: oter_loss(head, X_mx, cfg))
            assert _grad_ok(
                head, lambda: ber_total(head, X, y, X_id, X_ps, X_mx, cfg)
            )
    report_line(2, "analytic gradients match finite differences (100 heads)", time.perf_counter() - t0, 30)


def test_criterion_3_ratio_invariant():
    t0 = time.perf_counter()
    cfg = RunConfig.from_dict(
        {
            "data": {"synth": {"n_classes": 10, "dim": 16, "n_train_per_class": 20,
                                "n_test_per_class": 10, "n_ood_per_set": 50}},
            "step_size": 2,
            "memory_budget": 20,
            "cil": {"method": "replay", "epochs_per_task": 2, "batch_size": 64},
            "ood": {"method": "energy"},
            "seeds": [0],
        }
    )
    report = run_benchmark(cfg)
    steps = sorted({r["step"] for r in report.records})
    assert steps == [1, 2, 3, 4, 5]
    per_task_test = 10 * 2
    ratios = [r["n_ood_test"] / r["n_id_test"] for r in report.records]
    assert max(ratios) - min(ratios) <= 1.0 / per_task_test
    report_line(3, "OOD/ID test ratio fixed across 5 steps", time.perf_counter() - t0, 1)


def test_criterion_4_framework_non_interference():
    t0 = time.perf_counter()
    base_doc = {
        "data": {"synth": {"n_classes": 12, "dim": 24, "n_train_per_class": 100,
                            "n_test_per_class": 25, "n_ood_per_set": 100}},
        "step_size": 4,
        "memory_budget": 120,
        "cil": {"method": "replay", "epochs_per_task": 8, "batch_size": 128},
        "ood": {"method": "energy"},
        "seeds": [0, 1],
    }
    base = run_benchmark(RunConfig.from_dict(base_doc))
    base_acc = [(r["seed"], r["step"], r["acc"]) for r in base.records]
    for method in ("ber", "logitnorm", "t2fnorm"):
        tuned = run_benchmark(RunConfig.from_dict({**base_doc, "ood": {"method": method}}))
        tuned_acc = [(r["seed"], r["step"], r["acc"]) for r in tuned.records]
        assert tuned_acc == base_acc  # bit-identical floats
    report_line(4, "CIL accuracy trajectory bit-identical under fine-tuners", time.perf_counter() - t0, 120)


def test_criterion_5_forgetting_reproduction(forgetting_runs):
    runs, fixture_time = forgetting_runs
    t0 = time.perf_counter()
    gap = np.mean([r["acc1_replay"] for r in runs]) - np.mean(
        [r["acc1_none"] for r in runs]
    )
    assert gap >= 0.20
    report_line(
        5,
        f"replay-free task-1 accuracy {100 * gap:.1f} pts below replay",
        time.perf_counter() - t0 + fixture_time,
        300,
    )


def test_criterion_6_bias_reproduction(forgetting_runs):
    runs, fixture_time = forgetting_runs
    t0 = time.perf_counter()
    old_conf, new_conf, ood_new, ood_old = [], [], [], []
    for r in runs:
        model, stream, suite = r["replay_model"], r["stream"], r["suite"]
        final = stream.classes[-1]
        te = stream.test_through(stream.num_steps)
        conf = score_batch("msp", model, None, te.features)
        is_new = np.isin(te.labels, final)
        old_conf.append(conf[~is_new].mean())
        new_conf.append(conf[is_new].mean())

        oodX = np.concatenate([e.dataset.features for e in suite.entries])
        P = softmax_rows(model.logits(oodX))
        pred_cls = np.array(model.seen_classes)[np.argmax(P, axis=1)]
        msp = P.max(axis=1)
        as_new = np.isin(pred_cls, final)
        assert as_new.any() and (~as_new).any()
        ood_new.append(msp[as_new].mean())
        ood_old.append(msp[~as_new].mean())
    assert np.mean(old_conf) < np.mean(new_conf)
    assert np.mean(ood_new) > np.mean(ood_old)
    report_line(
        6,
        f"confidence old {np.mean(old_conf):.3f} < new {np.mean(new_conf):.3f}; "
        f"OOD-as-new {np.mean(ood_new):.3f} > OOD-as-old {np.mean(ood_old):.3f}",
        time.perf_counter() - t0 + fixture_time,
        300,
    )


def test_criterion_7_ber_ablation_ordering():
    t0 = time.perf_counter()
    variants = {
        "neither": dict(use_nter=False, use_oter=False),
        "nter": dict(use_oter=False),
        "oter": dict(use_nter=False),
        "both": dict(),
    }
    agg = {k: [] for k in variants}
    for seed in SEEDS:
        spec = SynthSpec(seed=seed)
        train, test, suite = generate(spec)
        stream = split_tasks(train, test, STEP_SIZE)
        T = stream.num_steps
        model = CilModel.fresh(spec.dim)
        mem = MemoryBuffer(REPLAY_BUDGET)
        rng = RngStream(seed, "ablate")
        per_step = {k: [] for k in variants}
        for t in range(1, T + 1):
            mem_t = mem
            model, mem = train_task(model, stream, t, mem_t, DEFAULT_CIL, rng)
            id_test = stream.test_through(t)
            for key, over in variants.items():
                cfg = BerConfig(hinge_orientation=SELECTED_ORIENTATION, **over)
                fmodel = finetune_step_loop(
                    model, stream, t, mem_t, "ber", cfg, rng.child(f"ft-{key}-{t}")
                )
                id_s = score_batch("energy", fmodel, None, id_test.features)
                aucs = [
                    auroc(
                        id_s,
                        score_batch(
                            "energy", fmodel, None,
                            ood_subset(e.dataset, t, T, RngStream(seed, f"sub/{e.name}")).features,
                        ),
                    )
                    for e in suite.entries
                ]
                per_step[key].append(float(np.mean(aucs)))
        for k in variants:
            agg[k].append(float(np.mean(per_step[k])))
    mean = {k: 100 * float(np.mean(v)) for k, v in agg.items()}
    assert mean["nter"] >= mean["neither"] - 0.5
    assert mean["oter"] >= mean["neither"] - 0.5
    assert mean["both"] >= max(mean["nter"], mean["oter"]) - 0.5
    assert mean["both"] > mean["neither"]
    report_line(
        7,
        "AUC neither {neither:.2f} | nter {nter:.2f} | oter {oter:.2f} | both {both:.2f}".format(**mean),
        time.perf_counter() - t0,
        900,
    )


def test_criterion_8_degeneracy_identities():
    t0 = time.perf_counter()
    gen = np.random.default_rng(808)
    head = LinearHead(gen.normal(size=(5, 8)), gen.normal(size=5))
    model = CilModel(head, list(range(5)))
    fit = fit_scorer("react", model, gen.normal(size=(200, 8)), PosthocParams(react_percentile=100.0))
    X = gen.normal(size=(1000, 8)) * 5
    react = score_batch("react", model, fit, X)
    energy = score_batch("energy", model, None, X)
    np.testing.assert_array_equal(react, energy)
    odin = score_batch(
        "odin", model, None, X, PosthocParams(odin_epsilon=0.0, odin_temperature=1.0)
    )
    msp = score_batch("msp", model, None, X)
    np.testing.assert_array_equal(odin, msp)
    report_line(8, "react(p=100) == energy and odin(eps=0,T=1) == msp on 1000 inputs", time.perf_counter() - t0, 5)


def test_criterion_9_determinism_across_threads(tmp_path):
    t0 = time.perf_counter()
    doc = json.loads((REPO / "configs" / "example_run.json").read_text())
    doc.pop("out_dir")
    blobs = []
    for threads in (1, 8):
        cfg = RunConfig.from_dict({**doc, "threads": threads})
        report = run_benchmark(cfg)
        out = tmp_path / f"t{threads}"
        emit_report(report, out, formats=("json",))
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    report_line(9, "report.json byte-identical under threads 1 and 8", time.perf_counter() - t0, 600)


def test_criterion_10_near_far_ordering():
    t0 = time.perf_counter()
    near_avg = {name: [] for name in SCORER_NAMES}
    far_avg = {name: [] for name in SCORER_NAMES}
    for seed in SEEDS:
        spec = SynthSpec(seed=seed)
        train, test, suite = generate(spec)
        stream = split_tasks(train, test, STEP_SIZE)
        model = CilModel.fresh(spec.dim)
        rng = RngStream(seed, "nf")
        model, _ = train_task(model, stream, 1, MemoryBuffer(REPLAY_BUDGET), DEFAULT_CIL, rng)
        id_test = stream.test_through(1)
        fit_rows = stream.task_train(1).features
        for name in SCORER_NAMES:
            fit = fit_scorer(name, model, fit_rows)
            id_s = score_batch(name, model, fit, id_test.features)
            near, far = [], []
            for e in suite.entries:
                sub = ood_subset(e.dataset, 1, stream.num_steps, RngStream(seed, f"sub/{e.name}"))
                (near if e.tag == "near" else far).append(
                    auroc(id_s, score_batch(name, model, fit, sub.features))
                )
            near_avg[name].append(np.mean(near))
            far_avg[name].append(np.mean(far))
    worst_margin = 1.0
    for name in SCORER_NAMES:
        near, far = np.mean(near_avg[name]), np.mean(far_avg[name])
        assert far > near, f"{name}: far {far:.4f} <= near {near:.4f}"
        assert far > 0.9, f"{name}: far AUC {far:.4f} below sanity floor"
        worst_margin = min(worst_margin, far - near)
    report_line(
        10,
        f"far > near for all {len(SCORER_NAMES)} scorers (min margin {worst_margin:.4f})",
        time.perf_counter() - t0,
        300,
    )
