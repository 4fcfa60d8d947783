"""End-to-end benchmark driver.

One run = one CIL trainer + one OOD method, evaluated per incremental
step on the union of seen test sets plus nested, proportionally growing
OOD subsets, then aggregated over steps, near/far tags, and seeds.

A seed runs in two phases.  ``_trajectory`` knows only CIL: it trains
each step and measures ACC.  ``_score_step`` knows only the OOD method: a
post-hoc method scores through the step's head, a fine-tuning method
trains an extra head from it and scores with ``ood.score_with``, so no OOD
method can change the CIL trajectory.  :class:`RunConfig` parses every
section once, when built, and routes a method to either framework.
Reports are byte-stable: records are sorted and aggregation is an ordered
reduction.  Seeds run one after another; the ``threads`` setting is
accepted and validated for compatibility but does not change how a run
executes or what it writes.  With an artifact directory, each seed also
writes its head checkpoints, its CIL training log
(``logs/train_seed{s}.jsonl``), for a fine-tuning method its fine-tune log
(``logs/finetune_seed{s}.jsonl``), and its per-step phase timings
(``logs/timings_seed{s}.jsonl``) beside the report, never into it.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .cil import CilConfig, CilModel, evaluate_accuracy, train_task
from .configcheck import ConfigError, check_field_types, check_keys, is_int, parse_section, read_json
from .data import MemoryBuffer, load_suite_manifest, ood_order, ood_subset, split_tasks, step_rows
from .finetune import FINETUNE_METHODS, BerConfig, finetune_step_loop
from .metrics import auroc, average_precision, fpr_at_tpr95
from .model import save_head
from .numerics import RngStream
from .posthoc import SCORER_NAMES, PosthocParams, fit_scorer, score_batch
from .synthgen import SynthSpec, generate

__all__ = ["RunConfig", "BenchmarkReport", "preflight", "run_benchmark", "emit_report"]

OOD_METHODS = SCORER_NAMES + FINETUNE_METHODS

# wall seconds per (seed, step) written to logs/timings_seed{s}.jsonl;
# score_id includes the step's accuracy evaluation on the same ID rows
PHASES = (
    "cil_train",
    "finetune",
    "scorer_fit",
    "score_id",
    "score_ood",
    "metrics",
    "checkpoint_io",
)
# a step's four measures, in the order the report states them
_METRICS = ("acc", "auroc", "fpr95", "ap")
# one record's fields: the order a record is built in and report.csv's columns
_RECORD_FIELDS = ("seed", "step", "ood_dataset", "tag", "n_id_test", "n_ood_test", *_METRICS)


@dataclass(frozen=True)
class RunConfig:
    """One benchmark run: data, step size, one CIL method, one OOD method.

    Construction validates every field and parses each section once into the
    read-only attributes a run reads: ``cil_config``, ``finetune_params``
    (``None`` for a post-hoc method), ``scorer`` and ``scorer_params`` (a
    post-hoc method's own name and ``params``, which take no ``score_with``
    or ``scorer_params``; else those two, ``energy`` by default) and
    ``synth_spec`` (``None`` for a manifest).  Whether the config can run
    on its data is :func:`preflight`'s to say."""

    data: dict
    step_size: int = 4
    memory_budget: int = 200
    class_order: str = "identity"  # or "seeded" (per-seed shuffle)
    # echoed in the report; features arrive extracted, so only the identity
    extractor: dict = field(default_factory=lambda: {"kind": "identity"})
    cil: dict = field(default_factory=dict)
    ood: dict = field(default_factory=lambda: {"method": "energy"})
    seeds: tuple[int, ...] = (0, 1, 2)
    threads: int = 1  # validated for compatibility; seeds always run serially
    out_dir: str | None = None

    def __post_init__(self):
        check_field_types(self, ConfigError)
        # RngStream reads seeds modulo 2^64: one outside [0, 2^64) aliases another
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds or not all(
            is_int(s) and 0 <= s < 2**64 for s in self.seeds
        ):
            raise ConfigError(f"seeds must be nonempty integers in [0, 2^64), got {self.seeds!r}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds must be distinct; repeated: {repeated}")
        if self.step_size < 2:
            raise ConfigError("step_size must be >= 2")
        if self.memory_budget < 0:
            raise ConfigError("memory_budget must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.class_order not in ("identity", "seeded"):
            raise ConfigError(f"unknown class_order {self.class_order!r}")
        check_keys(self.data, ("synth", "manifest"), "data fields")
        if len(self.data) != 1:
            raise ConfigError("data needs exactly one of a 'synth' spec or a 'manifest' path")
        if not isinstance(self.data.get("manifest", ""), str):
            raise ConfigError(f"data.manifest must be a string, got {self.data['manifest']!r}")
        check_keys(self.ood, ("method", "params", "score_with", "scorer_params"), "ood fields")
        check_keys(self.extractor, ("kind",), "extractor fields")
        if self.extractor.get("kind", "identity") != "identity":
            raise ConfigError(f"extractor.kind must be 'identity', got {self.extractor['kind']!r}")
        method = self.ood.get("method")
        if method not in OOD_METHODS:
            raise ConfigError(f"ood.method must be one of {sorted(OOD_METHODS)}")
        # the one place that routes a method to post-hoc scoring or fine-tuning
        if method in SCORER_NAMES:
            check_keys(self.ood, ("method", "params"), f"ood fields for post-hoc {method!r}")
            finetune, scorer, scorer_doc = None, method, self.ood.get("params", {})
        else:
            finetune = parse_section(BerConfig, self.ood.get("params", {}), "fine-tune params")
            scorer = self.ood.get("score_with", "energy")
            scorer_doc = self.ood.get("scorer_params", {})
            if scorer not in SCORER_NAMES:
                raise ConfigError(f"ood.score_with must be one of {sorted(SCORER_NAMES)}")
        synth = self.data.get("synth")
        parsed = {
            "cil_config": parse_section(CilConfig, self.cil, "cil config"),
            "finetune_params": finetune,
            "scorer": scorer,
            "scorer_params": parse_section(PosthocParams, scorer_doc, "scorer params"),
            "synth_spec": None if synth is None else parse_section(SynthSpec, synth, "synth spec"),
        }
        for name, value in parsed.items():
            object.__setattr__(self, name, value)  # frozen: read-only once set
        if synth is not None and "seed" in synth:
            raise ConfigError(
                "data.synth.seed is not a run setting: each run seed generates its own suite"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return parse_section(cls, doc, "config")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(read_json(path, "config", ConfigError))

    def to_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds)}


@dataclass
class BenchmarkReport:
    config: dict
    records: list[dict]
    aggregates: dict
    failures: list[dict]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkReport":
        return cls(doc["config"], doc["records"], doc["aggregates"], doc["failures"])


def preflight(cfg: RunConfig):
    """The one check of ``cfg`` against its data, made by ``validate-config``
    and by a run before any seed.  Returns a manifest's loaded ``(train,
    test, suite)``, else ``None``.  ``ConfigError`` rejects a ``step_size``
    above the class count, or an OOD set with fewer rows than steps, which
    ``ood_subset`` would leave empty at step 1 of T (floor(n / T) rows)."""
    spec, manifest = cfg.synth_spec, None
    if spec is not None:
        n_classes, smallest = spec.n_classes, spec.n_ood_per_set
    else:
        manifest = load_suite_manifest(cfg.data["manifest"])
        train, _, suite = manifest
        n_classes, smallest = train.n_classes, min(e.dataset.n for e in suite.entries)
    if cfg.step_size > n_classes:
        raise ConfigError(f"step_size {cfg.step_size} exceeds class count {n_classes}")
    steps = -(-n_classes // cfg.step_size)
    if smallest < steps:
        raise ConfigError(
            f"an OOD set of {smallest} rows is empty at step 1 of {steps}; "
            f"each set needs at least {steps} rows"
        )
    return manifest


def _seed_data(cfg: RunConfig, seed: int, manifest):
    """A seed's task stream and OOD suite, from the run's ``manifest`` suite
    or, for a synthetic config, from a suite generated with that seed.  The
    stream is the one holder of the seed's ID rows."""
    train, test, suite = manifest or generate(replace(cfg.synth_spec, seed=seed))
    order = RngStream(seed, "class-order") if cfg.class_order == "seeded" else None
    return split_tasks(train, test, cfg.step_size, order), suite


@contextmanager
def _timed(phases: dict, name: str):
    t0 = perf_counter()
    yield  # a phase that raises fails its seed, and no timings are written
    phases[name] += perf_counter() - t0


def _trajectory(cfg: RunConfig, seed: int, stream, train_log: list):
    """The CIL phase: yields ``(t, model, mem_t, acc, took)`` per step: the
    model after step t, the memory before it, the accuracy on the test rows
    of tasks 1..t, and the timing record with ``cil_train`` and ACC in ``score_id``."""
    model = CilModel.fresh(stream.train_x.shape[1])
    mem = MemoryBuffer(cfg.memory_budget)
    rng = RngStream(seed, "run").child("cil")
    for t in range(1, stream.num_steps + 1):
        took = {"seed": seed, "step": t, **dict.fromkeys(PHASES, 0.0)}
        mem_t = mem
        with _timed(took, "cil_train"):
            model, mem = train_task(model, stream, t, mem_t, cfg.cil_config, rng, train_log)
        with _timed(took, "score_id"):
            acc = evaluate_accuracy(model, *stream.test_through(t))
        yield t, model, mem_t, acc, took


def _score_step(cfg: RunConfig, seed: int, stream, step, ood_sets, ft_log) -> tuple[list, CilModel]:
    """The OOD phase of one ``_trajectory`` step: its records and scoring
    model.  ``ood_sets`` pairs each OOD entry with its ``ood_order``.  Adds
    the step's remaining phase times to ``took``.  Every row set it reads
    (the fit rows, the ID test rows and each OOD subset) is a ``RowView``
    of the stored suite, read as the ``data`` module docstring states."""
    t, model, mem_t, acc, took = step
    T = stream.num_steps
    scorer, params, ft = cfg.scorer, cfg.scorer_params, cfg.finetune_params
    score_model = model
    if ft is not None:
        method = cfg.ood["method"]
        rng = RngStream(seed, "run").child(f"ft-t{t}")
        with _timed(took, "finetune"):
            score_model = finetune_step_loop(model, stream, t, mem_t, method, ft, rng, ft_log)
    with _timed(took, "scorer_fit"):
        fit = fit_scorer(scorer, score_model, step_rows(stream, t, mem_t)[0], params)
    with _timed(took, "score_id"):
        id_scores = score_batch(scorer, score_model, fit, stream.test_through(t)[0], params)
    records = []
    for entry, order in ood_sets:
        with _timed(took, "score_ood"):
            sub = ood_subset(entry.dataset, t, T, order)
            ood_scores = score_batch(scorer, score_model, fit, sub, params)
        with _timed(took, "metrics"):
            values = (seed, t, entry.name, entry.tag, id_scores.shape[0], ood_scores.shape[0], acc,
                      auroc(id_scores, ood_scores), fpr_at_tpr95(id_scores, ood_scores),
                      average_precision(id_scores, ood_scores))
            records.append(dict(zip(_RECORD_FIELDS, values, strict=True)))
    return records, score_model


def _run_seed(cfg: RunConfig, seed: int, stream, suite, artifact_dir: Path | None) -> list[dict]:
    train_log, timings, records = [], [], []
    ft_log: list | None = None if cfg.finetune_params is None else []
    # one permutation per OOD set and seed, whose prefixes every step takes
    ood_sets = [
        (e, ood_order(e.dataset, RngStream(seed, f"oodsubset/{e.name}"))) for e in suite.entries
    ]
    for step in _trajectory(cfg, seed, stream, train_log):
        t, model, took = step[0], step[1], step[-1]
        timings.append(took)
        step_records, score_model = _score_step(cfg, seed, stream, step, ood_sets, ft_log)
        records += step_records
        if artifact_dir is not None:
            with _timed(took, "checkpoint_io"):
                ckpt = artifact_dir / "checkpoints"
                save_head(model.head, ckpt / f"head_seed{seed}_step{t}.och")
                if score_model is not model:
                    save_head(score_model.head, ckpt / f"extra_head_seed{seed}_step{t}.och")

    if artifact_dir is not None:
        logs = artifact_dir / "logs"
        for name, entries in (("train", train_log), ("finetune", ft_log), ("timings", timings)):
            if entries is not None:
                lines = "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)
                (logs / f"{name}_seed{seed}.jsonl").write_text(lines)
    return records


def _aggregate(records: list[dict], seeds) -> dict:
    steps = sorted({r["step"] for r in records})

    def mean_over(rows, key):
        return float(np.mean([r[key] for r in rows])) if rows else None

    per_step = []
    for t in steps:
        rows = [r for r in records if r["step"] == t]
        entry = {"step": t}
        for m in _METRICS:
            entry[m] = mean_over(rows, m)
        for tag in ("near", "far"):
            tagged = [r for r in rows if r["tag"] == tag]
            entry[f"auroc_{tag}"] = mean_over(tagged, "auroc")
        per_step.append(entry)

    over_steps = {}
    for m in _METRICS + ("auroc_near", "auroc_far"):
        vals = [e[m] for e in per_step if e.get(m) is not None]
        over_steps[m] = float(np.mean(vals)) if vals else None

    ok_seeds = sorted({r["seed"] for r in records})
    per_seed = []
    for s in ok_seeds:
        rows = [r for r in records if r["seed"] == s]
        step_means = [
            float(np.mean([r["auroc"] for r in rows if r["step"] == t])) for t in steps
        ]
        per_seed.append({"seed": s, "auroc_over_steps": float(np.mean(step_means))})
    seed_aucs = [e["auroc_over_steps"] for e in per_seed]
    return {
        "per_step": per_step,
        "over_steps": over_steps,
        "per_seed": per_seed,
        "seed_mean_auroc": float(np.mean(seed_aucs)) if seed_aucs else None,
        "seed_std_auroc": float(np.std(seed_aucs)) if seed_aucs else None,
        "effective_seeds": len(ok_seeds),
        "requested_seeds": len(seeds),
    }


def verify_consistency(report: BenchmarkReport) -> bool:
    """Recompute aggregates from the raw records and compare."""
    return _aggregate(report.records, report.config.get("seeds", [])) == report.aggregates


def run_benchmark(cfg: RunConfig, artifact_dir=None) -> BenchmarkReport:
    """Execute every seed in turn and aggregate.

    :func:`preflight` runs first and loads a manifest suite once for every
    seed; a fault it finds, or in then making the artifact directory's
    ``checkpoints`` and ``logs``, ends the run before any seed.
    A failing seed is recorded under ``failures`` and does not abort the
    others.  Synthetic data is generated per seed, from ``synth_spec`` with
    that seed (a run config takes no ``data.synth.seed``).  A seed's stream
    goes straight into ``_run_seed``, so its rows are freed when the seed
    ends, before the next seed's are made.
    """
    manifest = preflight(cfg)
    artifact_dir = Path(artifact_dir) if artifact_dir else None
    if artifact_dir is not None:
        for sub in ("checkpoints", "logs"):
            (artifact_dir / sub).mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    failures: list[dict] = []
    for seed in cfg.seeds:
        try:
            records += _run_seed(cfg, seed, *_seed_data(cfg, seed, manifest), artifact_dir)
        except Exception as exc:  # seed-level isolation
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
    records.sort(key=lambda r: (r["seed"], r["step"], r["ood_dataset"]))
    failures.sort(key=lambda f: f["seed"])
    aggregates = _aggregate(records, cfg.seeds)
    # thread count and output location are execution details, not
    # experiment identity: the report must not depend on them
    echo = cfg.to_dict()
    echo.pop("threads")
    echo.pop("out_dir")
    return BenchmarkReport(echo, records, aggregates, failures)


def _to_markdown(report: BenchmarkReport) -> str:
    cfg = report.config
    agg = report.aggregates
    ood = cfg["ood"]["method"]
    cil = cfg["cil"].get("method", "replay")
    lines = [
        "# Benchmark report",
        "",
        f"OOD method `{ood}` on CIL trainer `{cil}`; "
        f"seeds {agg['effective_seeds']}/{agg['requested_seeds']}.",
        "",
        f"| Method | {cil} ACC | AUC | FPR | AP |",
        "|---|---|---|---|---|",
    ]
    o = agg["over_steps"]
    columns = _METRICS + ("auroc_near", "auroc_far")

    def row(label, entry, width=len(columns)):
        """One table row: ``label``, then the first ``width`` columns in percent."""
        cells = ["-" if entry[k] is None else f"{100 * entry[k]:.2f}" for k in columns[:width]]
        return "| " + " | ".join([str(label), *cells]) + " |"

    lines += [
        row(ood, o, 4),
        "",
        "## Per-step means",
        "",
        "| Step | ACC | AUC | FPR95 | AP | AUC near | AUC far |",
        "|---|---|---|---|---|---|---|",
    ]
    lines += [row(e["step"], e) for e in agg["per_step"]]
    lines.append(row("mean", o))
    return "\n".join(lines) + "\n"


def _to_csv(report: BenchmarkReport) -> str:
    rows = [",".join(_RECORD_FIELDS)]
    for r in report.records:
        rows.append(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in _RECORD_FIELDS))
    return "\n".join(rows) + "\n"


# format name -> (file name, renderer); emit_report writes all three by default
_FORMATS = {
    "json": ("report.json", lambda report: json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"),
    "csv": ("report.csv", _to_csv),
    "md": ("report.md", _to_markdown),
}


def emit_report(report: BenchmarkReport, out_dir, formats=tuple(_FORMATS)) -> list[Path]:
    """Write the files of ``formats``, each one of ``json``, ``csv`` and
    ``md``, in the order named; another name raises ``KeyError``.  Identical
    reports produce identical bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in formats:
        file_name, render = _FORMATS[name]
        path = out / file_name
        path.write_text(render(report))
        written.append(path)
    return written
