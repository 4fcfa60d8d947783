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
