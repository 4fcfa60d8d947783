"""Train the incremental classifier with and without replay memory.

Without replay, accuracy on the first task collapses as later tasks
arrive; the surviving model is also biased: old-class test rows get much
lower confidence than new-class rows.
"""
from cilbench import CilConfig, CilModel, MemoryBuffer, SynthSpec
from cilbench import RngStream, evaluate_accuracy, generate, score_batch, split_tasks, train_task

spec = SynthSpec(seed=0)
train, test, _ = generate(spec)
stream = split_tasks(train, test, k=4)  # 5 tasks of 4 classes
cfg = CilConfig()

for budget in (0, 200):
    model = CilModel.fresh(spec.dim)
    mem = MemoryBuffer(budget)
    rng = RngStream(0, "demo")
    task1_curve = []
    for t in range(1, stream.num_steps + 1):
        model, mem = train_task(model, stream, t, mem, cfg, rng)
        task1_curve.append(evaluate_accuracy(model, *stream.test_through(1)))
    label = "no replay " if budget == 0 else f"replay {budget:>3}"
    print(f"{label}: task-1 accuracy per step "
          f"{['%.2f' % a for a in task1_curve]}")

# confidence bias at the final step of the replay run
final_classes = stream.classes[-1]
# a view of the rows, and their labels: the head rows that predict them
test_x, test_y = stream.test_through(stream.num_steps)
conf = score_batch("msp", model, None, test_x)
is_new = test_y >= model.head.n_classes - len(final_classes)  # the last rows
print(f"mean confidence: old classes {conf[~is_new].mean():.3f} "
      f"< new classes {conf[is_new].mean():.3f}")
