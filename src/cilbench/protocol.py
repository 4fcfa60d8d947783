"""End-to-end benchmark driver.

One run = one CIL trainer + one OOD method, evaluated per incremental
step on the union of seen test sets plus nested, proportionally growing
OOD subsets, then aggregated over steps, near/far tags, and seeds.

Post-hoc methods score through the incremental head; fine-tuning
methods train an extra head per step and score through it, so the CIL
accuracy trajectory is untouched by construction.  Reports are
byte-stable: records are sorted and aggregation is an ordered
reduction.  Seeds run one after another; the ``threads`` setting is
accepted and validated for compatibility but does not change how a run
executes or what it writes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cil import CilConfig, CilModel, evaluate_accuracy, train_task
from .data import (
    DataError,
    MemoryBuffer,
    features_by_class,
    load_suite_manifest,
    memory_rows,
    ood_subset,
    split_tasks,
)
from .finetune import FINETUNE_METHODS, BerConfig, finetune_step_loop
from .metrics import auroc, average_precision, fpr_at_tpr95
from .model import Extractor, save_head
from .numerics import RngStream
from .posthoc import SCORER_NAMES, PosthocParams, fit_scorer, score_batch
from .synthgen import SynthSpec, generate

__all__ = ["RunConfig", "BenchmarkReport", "run_benchmark", "emit_report"]

OOD_METHODS = tuple(SCORER_NAMES) + FINETUNE_METHODS[1:] + ("plain",)


class ConfigError(ValueError):
    """Invalid run configuration."""


def _check_ood_sizes(n_classes: int, step_size: int, ood_sizes) -> None:
    """Reject a suite that cannot run: ``ood_subset`` takes floor(n / T)
    rows of each OOD set at step 1, so a set needs at least T rows."""
    if step_size > n_classes:
        raise ConfigError(f"step_size {step_size} exceeds class count {n_classes}")
    steps = -(-n_classes // step_size)
    smallest = min(ood_sizes)
    if smallest < steps:
        raise ConfigError(
            f"an OOD set of {smallest} rows is empty at step 1 of {steps}; "
            f"each set needs at least {steps} rows"
        )


@dataclass(frozen=True)
class RunConfig:
    """One benchmark run: data, step size, one CIL method, one OOD method."""

    data: dict
    step_size: int = 4
    memory_budget: int = 200
    class_order: str = "identity"  # or "seeded" (per-seed shuffle)
    extractor: dict = field(default_factory=lambda: {"kind": "identity"})
    cil: dict = field(default_factory=dict)
    ood: dict = field(default_factory=lambda: {"method": "energy"})
    seeds: tuple[int, ...] = (0, 1, 2)
    threads: int = 1  # validated for compatibility; seeds always run serially
    out_dir: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.step_size < 2:
            raise ConfigError("step_size must be >= 2")
        if self.memory_budget < 0:
            raise ConfigError("memory_budget must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.class_order not in ("identity", "seeded"):
            raise ConfigError(f"unknown class_order {self.class_order!r}")
        if not ({"synth", "manifest"} & set(self.data)):
            raise ConfigError("data needs a 'synth' spec or a 'manifest' path")
        method = self.ood.get("method")
        if method not in OOD_METHODS:
            raise ConfigError(f"ood.method must be one of {sorted(OOD_METHODS)}")
        score_with = self.ood.get("score_with", "energy")
        if score_with not in SCORER_NAMES:
            raise ConfigError(f"ood.score_with must be one of {sorted(SCORER_NAMES)}")
        # fail fast on malformed sub-configs
        self.cil_config()
        self.ber_config()
        self.posthoc_params()
        if "synth" in self.data:
            try:
                spec = SynthSpec.from_dict(self.data["synth"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad synth spec: {exc}") from exc
            _check_ood_sizes(spec.n_classes, self.step_size, [spec.n_ood_per_set])

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = dict(doc)
        if "seeds" in doc:
            doc["seeds"] = tuple(doc["seeds"])
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {
            "data": self.data,
            "step_size": self.step_size,
            "memory_budget": self.memory_budget,
            "class_order": self.class_order,
            "extractor": self.extractor,
            "cil": self.cil,
            "ood": self.ood,
            "seeds": list(self.seeds),
            "threads": self.threads,
            "out_dir": self.out_dir,
        }

    def cil_config(self) -> CilConfig:
        try:
            return CilConfig(**self.cil)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad cil config: {exc}") from exc

    def ber_config(self) -> BerConfig:
        params = self.ood.get("params", {})
        if self.ood.get("method") in FINETUNE_METHODS or "hinge_orientation" in params:
            try:
                return BerConfig.from_dict(params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad fine-tune params: {exc}") from exc
        return BerConfig()

    def posthoc_params(self) -> PosthocParams:
        if self.ood.get("method") in SCORER_NAMES:
            params = self.ood.get("params", {})
        else:
            params = self.ood.get("scorer_params", {})
        try:
            return PosthocParams.from_dict(params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad scorer params: {exc}") from exc

    def make_extractor(self, input_dim: int) -> Extractor:
        kind = self.extractor.get("kind", "identity")
        if kind == "identity":
            return Extractor()
        return Extractor(
            "random_projection",
            d_in=input_dim,
            d_out=int(self.extractor.get("d_out", input_dim)),
            seed=int(self.extractor.get("seed", 0)),
        )


@dataclass
class BenchmarkReport:
    config: dict
    records: list[dict]
    aggregates: dict
    failures: list[dict]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": self.records,
            "aggregates": self.aggregates,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkReport":
        return cls(doc["config"], doc["records"], doc["aggregates"], doc["failures"])

    def __eq__(self, other):
        return isinstance(other, BenchmarkReport) and self.to_dict() == other.to_dict()


def _load_run_data(cfg: RunConfig, seed: int):
    if "synth" in cfg.data:
        spec = SynthSpec.from_dict({**cfg.data["synth"], "seed": seed})
        return generate(spec)
    train, test, suite = load_suite_manifest(cfg.data["manifest"])
    _check_ood_sizes(train.n_classes, cfg.step_size, [e.dataset.n for e in suite.entries])
    return train, test, suite


def _score_model_for_step(cfg, model, stream, t, mem_t, rng):
    """The (model, scorer_name) pair used for OOD scoring at step t."""
    method = cfg.ood["method"]
    if method in SCORER_NAMES:
        return model, method
    ber_cfg = cfg.ber_config()
    f_head = finetune_step_loop(
        model, stream, t, mem_t, method, ber_cfg, rng.child(f"ft-t{t}")
    )
    feature_tau = ber_cfg.t2f_tau if method == "t2fnorm" else None
    f_model = CilModel(model.extractor, f_head, list(model.seen_classes), feature_tau)
    return f_model, cfg.ood.get("score_with", "energy")


def _run_seed(cfg: RunConfig, seed: int, artifact_dir: Path | None) -> list[dict]:
    train, test, suite = _load_run_data(cfg, seed)
    order = RngStream(seed, "class-order") if cfg.class_order == "seeded" else None
    stream = split_tasks(train, test, cfg.step_size, order)
    T = stream.num_steps
    cil_cfg = cfg.cil_config()
    params = cfg.posthoc_params()
    extractor = cfg.make_extractor(train.dim)
    model = CilModel.fresh(extractor, extractor.extract(train.features[:1]).shape[1])
    mem = MemoryBuffer(cfg.memory_budget)
    rng = RngStream(seed, "run")
    train_log: list = []

    records = []
    for t in range(1, T + 1):
        mem_t = mem
        model, mem = train_task(model, stream, t, mem_t, cil_cfg, rng.child("cil"), train_log)
        id_test = stream.test_through(t)
        acc = evaluate_accuracy(model, id_test)

        score_model, scorer = _score_model_for_step(cfg, model, stream, t, mem_t, rng)
        fit_X, _ = memory_rows(mem_t, features_by_class(stream, t))
        fit_rows = (
            np.concatenate([stream.tasks[t - 1].train.features, fit_X])
            if fit_X.size
            else stream.tasks[t - 1].train.features
        )
        fit = fit_scorer(scorer, score_model, fit_rows, params)
        id_scores = score_batch(scorer, score_model, fit, id_test.features, params)

        for entry in suite.entries:
            sub = ood_subset(entry.dataset, t, T, RngStream(seed, f"oodsubset/{entry.name}"))
            ood_scores = score_batch(scorer, score_model, fit, sub.features, params)
            records.append(
                {
                    "seed": seed,
                    "step": t,
                    "ood_dataset": entry.name,
                    "tag": entry.tag,
                    "n_id_test": int(id_test.n),
                    "n_ood_test": int(sub.n),
                    "acc": acc,
                    "auroc": auroc(id_scores, ood_scores),
                    "fpr95": fpr_at_tpr95(id_scores, ood_scores),
                    "ap": average_precision(id_scores, ood_scores),
                }
            )
        if artifact_dir is not None:
            ckpt = artifact_dir / "checkpoints"
            ckpt.mkdir(parents=True, exist_ok=True)
            save_head(model.head, ckpt / f"head_seed{seed}_step{t}.och")
            if score_model is not model:
                save_head(score_model.head, ckpt / f"extra_head_seed{seed}_step{t}.och")

    if artifact_dir is not None:
        logs = artifact_dir / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        with open(logs / f"train_seed{seed}.jsonl", "w") as fh:
            for entry in train_log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return records


def _aggregate(records: list[dict], seeds) -> dict:
    steps = sorted({r["step"] for r in records})
    metrics = ("acc", "auroc", "fpr95", "ap")

    def mean_over(rows, key):
        return float(np.mean([r[key] for r in rows])) if rows else None

    per_step = []
    for t in steps:
        rows = [r for r in records if r["step"] == t]
        entry = {"step": t}
        for m in metrics:
            entry[m] = mean_over(rows, m)
        for tag in ("near", "far"):
            tagged = [r for r in rows if r["tag"] == tag]
            entry[f"auroc_{tag}"] = mean_over(tagged, "auroc")
        per_step.append(entry)

    over_steps = {}
    for m in metrics + ("auroc_near", "auroc_far"):
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
        "consistency_ok": True,  # re-derived in verify_consistency
    }


def verify_consistency(report: BenchmarkReport) -> bool:
    """Recompute aggregates from the raw records and compare."""
    fresh = _aggregate(report.records, report.config.get("seeds", []))
    stored = dict(report.aggregates)
    fresh["consistency_ok"] = stored.get("consistency_ok", True)
    return fresh == stored


def run_benchmark(cfg: RunConfig, artifact_dir=None) -> BenchmarkReport:
    """Execute every seed in turn and aggregate.

    A failing seed is recorded under ``failures`` and does not abort the
    others; a :class:`ConfigError` found once the data is loaded aborts the
    run.
    """
    artifact_dir = Path(artifact_dir) if artifact_dir else None
    results: dict[int, list[dict]] = {}
    failures: list[dict] = []
    for seed in cfg.seeds:
        try:
            results[seed] = _run_seed(cfg, seed, artifact_dir)
        except DataError as exc:
            failures.append({"seed": seed, "error": f"data: {exc}"})
        except ConfigError:
            raise  # the same for every seed
        except Exception as exc:  # seed-level isolation
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})

    records: list[dict] = []
    for seed in sorted(results):
        records.extend(results[seed])
    records.sort(key=lambda r: (r["seed"], r["step"], r["ood_dataset"]))
    failures.sort(key=lambda f: f["seed"])
    aggregates = _aggregate(records, cfg.seeds)
    # thread count and output location are execution details, not
    # experiment identity: the report must not depend on them
    echo = cfg.to_dict()
    echo.pop("threads")
    echo.pop("out_dir")
    return BenchmarkReport(echo, records, aggregates, failures)


_CSV_COLUMNS = (
    "seed",
    "step",
    "ood_dataset",
    "tag",
    "n_id_test",
    "n_ood_test",
    "acc",
    "auroc",
    "fpr95",
    "ap",
)


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

    def fmt(x):
        return "-" if x is None else f"{100 * x:.2f}"

    lines.append(
        f"| {ood} | {fmt(o['acc'])} | {fmt(o['auroc'])} | {fmt(o['fpr95'])} | {fmt(o['ap'])} |"
    )
    lines += [
        "",
        "## Per-step means",
        "",
        "| Step | ACC | AUC | FPR95 | AP | AUC near | AUC far |",
        "|---|---|---|---|---|---|---|",
    ]
    for e in agg["per_step"]:
        lines.append(
            f"| {e['step']} | {fmt(e['acc'])} | {fmt(e['auroc'])} | {fmt(e['fpr95'])} "
            f"| {fmt(e['ap'])} | {fmt(e['auroc_near'])} | {fmt(e['auroc_far'])} |"
        )
    lines.append(
        f"| mean | {fmt(o['acc'])} | {fmt(o['auroc'])} | {fmt(o['fpr95'])} "
        f"| {fmt(o['ap'])} | {fmt(o['auroc_near'])} | {fmt(o['auroc_far'])} |"
    )
    return "\n".join(lines) + "\n"


def emit_report(
    report: BenchmarkReport, out_dir, formats=("json", "csv", "markdown")
) -> list[Path]:
    """Write report files; identical reports produce identical bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out / "report.json"
        path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        written.append(path)
    if "csv" in formats:
        path = out / "report.csv"
        rows = [",".join(_CSV_COLUMNS)]
        for r in report.records:
            rows.append(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in _CSV_COLUMNS))
        path.write_text("\n".join(rows) + "\n")
        written.append(path)
    if "markdown" in formats:
        path = out / "report.md"
        path.write_text(_to_markdown(report))
        written.append(path)
    return written
