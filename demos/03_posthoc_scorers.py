"""Run all nine post-hoc scorers against one trained incremental step.

Every scorer returns higher-is-ID scores; the ones that need training
statistics (react, klm, nnguide, relation_simplified) are fitted on the
rows available at the step.  Far OOD separates more easily than near.
"""
import numpy as np

from cilbench import (
    CilConfig,
    CilModel,
    MemoryBuffer,
    RngStream,
    SynthSpec,
    auroc,
    fit_scorer,
    generate,
    ood_order,
    ood_subset,
    score_batch,
    split_tasks,
    train_task,
)
from cilbench.data import step_rows
from cilbench.posthoc import SCORER_NAMES

spec = SynthSpec(seed=1)
train, test, suite = generate(spec)
stream = split_tasks(train, test, k=4)
model = CilModel.fresh(spec.dim)
model, _ = train_task(model, stream, 1, MemoryBuffer(200), CilConfig(), RngStream(1, "demo"))

id_x, _ = stream.test_through(1)  # (features, labels) of the tasks so far
fit_rows, _ = step_rows(stream, 1, MemoryBuffer(0))  # step-1 rows only

print(f"{'scorer':<22} {'AUC near':>9} {'AUC far':>9}")
for name in SCORER_NAMES:
    fit = fit_scorer(name, model, fit_rows)
    id_scores = score_batch(name, model, fit, id_x)
    near, far = [], []
    for entry in suite.entries:
        # the step's OOD rows: a view of a prefix of one permutation
        order = ood_order(entry.dataset, RngStream(1, f"sub/{entry.name}"))
        sub = ood_subset(entry.dataset, 1, stream.num_steps, order)
        bucket = near if entry.tag == "near" else far
        bucket.append(auroc(id_scores, score_batch(name, model, fit, sub)))
    print(f"{name:<22} {np.mean(near):9.4f} {np.mean(far):9.4f}")
