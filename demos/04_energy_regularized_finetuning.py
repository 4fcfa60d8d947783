"""Fine-tune an extra detection head with bidirectional energy hinges.

The frozen incremental model keeps classifying; the extra head is
trained with cross-entropy plus two squared hinges on the energy
E(x) = -log sum exp f(x): new-task rows and their different-class
mixtures bound the energy from both sides, and a trickle of the current
batch mixed into replay exemplars pushes old-class energies back down.
The result is a wider ID-vs-OOD energy gap than plain fine-tuning.
"""
import numpy as np

from cilbench import (
    BerConfig,
    CilConfig,
    CilModel,
    MemoryBuffer,
    RngStream,
    SynthSpec,
    finetune_step_loop,
    generate,
    score_batch,
    split_tasks,
    train_task,
)

spec = SynthSpec(seed=2)
train, test, suite = generate(spec)
stream = split_tasks(train, test, k=4)
model = CilModel.fresh(spec.dim)
mem = MemoryBuffer(200)
rng = RngStream(2, "demo")
mems = []
for t in range(1, stream.num_steps + 1):
    mems.append(mem)
    model, mem = train_task(model, stream, t, mem, CilConfig(), rng)

T = stream.num_steps
id_X, _ = stream.test_through(T)
ood_X = np.concatenate([e.dataset.features for e in suite.entries])

for method, cfg in (
    ("plain", BerConfig()),
    ("ber", BerConfig(hinge_orientation="energy_paper")),
):
    log = []
    scored = finetune_step_loop(model, stream, T, mems[-1], method, cfg, rng.child(method), log)
    id_s = score_batch("energy", scored, None, id_X)
    ood_s = score_batch("energy", scored, None, ood_X)
    gap = id_s.mean() - ood_s.mean()
    print(f"{method:5s}: ID score {id_s.mean():6.2f}  OOD score {ood_s.mean():6.2f}  gap {gap:5.2f}")
    if method == "ber":
        last = [e for e in log if "epoch" in e][-1]
        print(f"       final-epoch loss components: ce {last['ce']:.3f} "
              f"l_n {last['l_n']:.3f} l_o {last['l_o']:.3f}")
