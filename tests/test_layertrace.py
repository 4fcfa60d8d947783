"""The benchmark's layer tracer (``bench/layertrace.py``) wraps layer
functions by name in the modules that call them.  If a training loop moves
to where the tracer does not look, its layer metrics read 0; this test
catches that from the tier-1 suite."""
import importlib.util
import math
from pathlib import Path

from cilbench import cil, finetune, protocol
from cilbench.protocol import RunConfig

REPO = Path(__file__).resolve().parent.parent


def load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", REPO / "bench" / "layertrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_sgd_step_of_cil_and_finetune():
    n_classes, per_class, step_size, budget = 6, 20, 2, 10
    cil_cfg = {"method": "replay_distill", "epochs_per_task": 2, "batch_size": 16}
    ber = {"epochs": 3, "batch_size": 12}
    cfg = RunConfig.from_dict({
        "data": {"synth": {"n_classes": n_classes, "dim": 8, "n_train_per_class": per_class,
                           "n_test_per_class": 5, "n_ood_per_set": 12}},
        "step_size": step_size,
        "memory_budget": budget,
        "cil": cil_cfg,
        "ood": {"method": "ber", "params": ber},
        "seeds": [0],
    })
    layertrace = load_layertrace()
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        report = protocol.run_benchmark(cfg)
    finally:
        tracer.restore()
    assert report.failures == []

    # CIL trains on the task's rows plus the memory kept after the previous
    # step (an equal quota per seen class); BER walks the task's rows only
    expected = 0
    for t in range(1, n_classes // step_size + 1):
        new = step_size * per_class
        seen_before = (t - 1) * step_size
        mem = budget // seen_before * seen_before if seen_before else 0
        expected += cil_cfg["epochs_per_task"] * math.ceil((new + mem) / cil_cfg["batch_size"])
        expected += ber["epochs"] * math.ceil(new / ber["batch_size"])
    assert tracer.metric("model.sgd_step.calls") == expected
    assert tracer.metric("cil.ce_loss.calls") > 0
    assert tracer.metric("finetune.ce_loss.calls") > 0
    assert tracer.metric("cil.train_task.calls") == n_classes // step_size
    # each (step, OOD set) record is scored by the three metrics, one call each
    for name in ("auroc", "fpr_at_tpr95", "average_precision"):
        assert tracer.metric(f"metrics.{name}.calls") == len(report.records)
    scored = sum(r["n_id_test"] + r["n_ood_test"] for r in report.records)
    assert tracer.metric("metrics.scores_in") == 3 * scored
    # restore() put every wrapped name back
    for fn in (protocol.run_benchmark, protocol.train_task, cil.sgd_step, finetune.sgd_step):
        assert not hasattr(fn, "__wrapped__")


def test_tracer_counts_the_rows_and_bank_cells_scored():
    # the tracer counts scoring where protocol calls score_batch and
    # ood_subset; a refactor that moves scoring off those names reads 0 here
    n_classes, per_class, n_test, n_ood, step_size, budget = 6, 20, 5, 12, 2, 10
    cfg = RunConfig.from_dict({
        "data": {"synth": {"n_classes": n_classes, "dim": 8, "n_train_per_class": per_class,
                           "n_test_per_class": n_test, "n_ood_per_set": n_ood}},
        "step_size": step_size,
        "memory_budget": budget,
        "cil": {"method": "replay", "epochs_per_task": 2, "batch_size": 16},
        "ood": {"method": "nnguide"},
        "seeds": [0, 1],
    })
    sets = cfg.synth_spec.n_near_sets + cfg.synth_spec.n_far_sets
    layertrace = load_layertrace()
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        report = protocol.run_benchmark(cfg)
    finally:
        tracer.restore()
    assert report.failures == []

    # step t scores the test rows of its 2t classes and floor(n * t / T)
    # rows of each OOD set against a bank of the task's rows plus the
    # memory kept after step t - 1 (an equal quota per seen class)
    T = n_classes // step_size
    rows = cells = 0
    for t in range(1, T + 1):
        scored = t * step_size * n_test + sets * (n_ood * t // T)
        seen_before = (t - 1) * step_size
        bank = step_size * per_class + (budget // seen_before * seen_before if seen_before else 0)
        rows += scored
        cells += scored * bank
    seeds = len(cfg.seeds)
    assert tracer.metric("posthoc.score_batch.rows") == seeds * rows
    assert tracer.metric("posthoc.score_batch.bank_cells") == seeds * cells
    assert tracer.metric("data.ood_subset.calls") == seeds * T * sets
    assert tracer.metric("posthoc.score_batch.calls") == seeds * T * (1 + sets)
    assert tracer.metric("posthoc.fit_scorer.calls") == seeds * T
