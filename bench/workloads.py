"""The benchmark's three workloads, each a list of cells run through the
public path ``RunConfig -> run_benchmark(cfg, artifact_dir=...) -> emit_report``.

Every workload builds its inputs from the workload seed alone.  ``setup``
does the work a user pays before ``cilbench run`` starts: config
validation, suite generation or writing, and a warm-up over tiny data
that touches every code path of the cells.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from cilbench import cli, protocol
from cilbench.data import load_suite_manifest
from cilbench.protocol import RunConfig
from cilbench.synthgen import SynthSpec, generate

from layertrace import SCORERS

FINETUNERS = ("plain", "logitnorm", "t2fnorm", "ber")

# report.json SHA-256 of the two shipped configs (seeds 0, 1, 2)
REFERENCE_SHA256 = {
    "energy": "766dccd7049fdc8bba6ee9d6ed669b575ef0f867fe0ec70808124c3f51ff31aa",
    "ber": "a4714390af372297007c465af3c963fde8c1db6b2819a35751b84ce5aedc5966",
}

# the ROADMAP "scaled" suite
SCALED_SYNTH = {
    "n_classes": 100,
    "dim": 256,
    "n_train_per_class": 300,
    "n_test_per_class": 50,
    "n_ood_per_set": 5000,
}


@dataclass(frozen=True)
class Cell:
    label: str
    cfg: RunConfig
    reference_sha256: str | None = None


def _warm_up(cil: dict, methods) -> None:
    """Run each OOD method once on tiny data so lazy imports, BLAS
    initialisation and first-call costs land in set-up, not in the pass."""
    tiny = {"n_classes": 4, "dim": 8, "n_train_per_class": 20,
            "n_test_per_class": 5, "n_ood_per_set": 20}
    for method in methods:
        cfg = RunConfig.from_dict({
            "data": {"synth": tiny}, "step_size": 2, "memory_budget": 8,
            "cil": {**cil, "epochs_per_task": 1}, "ood": {"method": method},
            "seeds": [0], "threads": 1,
        })
        report = protocol.run_benchmark(cfg)
        if report.failures:
            raise RuntimeError(f"warm-up {method}: {report.failures[0]['error']}")


class Workload:
    """Cells to run, built by ``setup`` from the checkout root and the seed;
    ``work`` is the workload's scratch directory inside the checkout."""

    name = ""

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work
        self.cells: list[Cell] = []

    def setup(self) -> None:
        raise NotImplementedError


class DeskGrid(Workload):
    """The shipped desk suite: 13 cells, one per OOD method, over replay.

    The ``energy`` and ``ber`` cells are the shipped configs verbatim, so
    their report bytes can be compared with the reference hashes.  The
    other 11 swap ``ood.method`` and run seeds (seed, seed + 1, seed + 2).
    """

    name = "desk_grid"

    def setup(self) -> None:
        energy = json.loads((self.root / "configs/example_run.json").read_text())
        ber = json.loads((self.root / "configs/example_ber_run.json").read_text())
        seeds = [self.seed, self.seed + 1, self.seed + 2]
        cells = []
        for method in SCORERS + FINETUNERS:
            if method in REFERENCE_SHA256:
                doc, ref = (energy if method == "energy" else ber), REFERENCE_SHA256[method]
            else:
                base = ber if method in FINETUNERS else energy
                doc = {**base, "ood": {**base["ood"], "method": method}, "seeds": seeds}
                ref = None
            cells.append(Cell(method, RunConfig.from_dict(doc), ref))
        _warm_up({"method": "replay"}, SCORERS + FINETUNERS)
        self.cells = cells


class ScaledBank(Workload):
    """The scaled suite written by ``gen-synth`` and loaded from its
    manifest, scored by the nnguide feature bank; one seed."""

    name = "scaled_bank"

    def setup(self) -> None:
        suite = self.work / "suite"
        spec_path = self.work / "scaled_spec.json"
        spec_path.parent.mkdir(parents=True, exist_ok=True)
        spec_path.write_text(json.dumps({**SCALED_SYNTH, "seed": self.seed}))
        code = cli.main(["gen-synth", "--spec", str(spec_path), "--out", str(suite)])
        if code != 0:
            raise RuntimeError(f"gen-synth exited with {code}")
        manifest = suite / "manifest.json"
        train, test, ood = load_suite_manifest(manifest)
        if (train.n, train.dim, len(ood.entries)) != (30000, 256, 4):
            raise RuntimeError("scaled suite has the wrong shape")
        cfg = RunConfig.from_dict({
            "data": {"manifest": str(manifest)},
            "step_size": 10,
            "memory_budget": 2000,
            "cil": {"method": "replay", "epochs_per_task": 30, "batch_size": 128},
            "ood": {"method": "nnguide"},
            "seeds": [self.seed],
            "threads": 1,
        })
        _warm_up({"method": "replay"}, ("nnguide",))
        self.cells = [Cell("nnguide", cfg)]


class ScaledBer(Workload):
    """The scaled shape generated in process, trained with distillation
    and weight align, and scored through the BER fine-tuned head; one seed."""

    name = "scaled_ber"

    def setup(self) -> None:
        ber = json.loads((self.root / "configs/example_ber_run.json").read_text())
        cil = {"method": "replay_distill_wa", "epochs_per_task": 30, "batch_size": 128}
        cfg = RunConfig.from_dict({
            "data": {"synth": SCALED_SYNTH},
            "step_size": 10,
            "memory_budget": 2000,
            "cil": cil,
            "ood": ber["ood"],
            "seeds": [self.seed],
            "threads": 1,
        })
        train, _test, _ood = generate(SynthSpec.from_dict({**SCALED_SYNTH, "seed": self.seed}))
        if (train.n, train.dim) != (30000, 256):
            raise RuntimeError("scaled suite has the wrong shape")
        _warm_up(cil, ("ber",))
        self.cells = [Cell("ber", cfg)]


WORKLOADS = {w.name: w for w in (DeskGrid, ScaledBank, ScaledBer)}
