"""One full benchmark run through the protocol driver.

Each seed trains the incremental model over the task stream; at every
step the configured OOD method is attached (here: the bidirectional
energy fine-tuner scored with energy), the ID test set grows to the
union of seen tasks, and each OOD dataset contributes a nested subset
that keeps the OOD/ID ratio fixed.  The report aggregates per step,
near/far, and over seeds, and is byte-stable across reruns.  Seeds run
side by side in forked worker processes, one per usable core.
"""
from cilbench import RunConfig, emit_report, run_benchmark

cfg = RunConfig.from_dict(
    {
        "data": {"synth": {"n_classes": 20, "dim": 32, "n_train_per_class": 200,
                            "n_test_per_class": 50, "n_ood_per_set": 1000}},
        "step_size": 4,
        "memory_budget": 200,
        "cil": {"method": "replay"},
        "ood": {"method": "ber", "params": {"hinge_orientation": "energy_paper"}},
        "seeds": [0, 1, 2],
    }
)
report = run_benchmark(cfg)

agg = report.aggregates
print(f"seeds {agg['effective_seeds']}/{agg['requested_seeds']} | "
      f"over-step AUC {100 * agg['over_steps']['auroc']:.2f} "
      f"± {100 * agg['seed_std_auroc']:.2f}")
print(f"{'step':>4} {'ACC':>7} {'AUC':>7} {'FPR95':>7} {'AP':>7}")
for e in agg["per_step"]:
    print(f"{e['step']:>4} {100*e['acc']:7.2f} {100*e['auroc']:7.2f} "
          f"{100*e['fpr95']:7.2f} {100*e['ap']:7.2f}")

paths = emit_report(report, "demo_run")
print("wrote:", *[str(p) for p in paths])
