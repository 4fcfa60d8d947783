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
reduction.  A run's seeds are independent, so :func:`run_benchmark` runs
them side by side in forked worker processes, one per usable core and at
most one per seed, and in this process when that is one or the platform
cannot fork safely; no byte of any output depends on which.  The
``threads`` setting is accepted and validated for compatibility but does
not change how a run executes or what it writes.  With an artifact
directory, each seed also writes its head checkpoints, its CIL training
log (``logs/train_seed{s}.jsonl``), for a fine-tuning method its
fine-tune log (``logs/finetune_seed{s}.jsonl``), and its per-step phase
timings (``logs/timings_seed{s}.jsonl``, wall seconds inside the process
that ran the seed) beside the report, never into it.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import sys
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
from .numerics import RngStream, usable_cores
from .posthoc import SCORER_NAMES, PosthocParams, fit_scorer, score_batch
from .synthgen import SynthSpec, generate

__all__ = ["RunConfig", "BenchmarkReport", "preflight", "run_benchmark", "emit_report"]

OOD_METHODS = SCORER_NAMES + FINETUNE_METHODS

_log = logging.getLogger(__name__)

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
    threads: int = 1  # validated for compatibility; seed workers follow the usable cores
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


def _failure(seed: int, exc: Exception) -> dict:
    return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _seed_task(cfg: RunConfig, seed: int, manifest, artifact_dir: Path | None):
    """One seed from its data to its records: ``(records, None)``, or
    ``([], failure)`` for a seed that raised (seed-level isolation).  Its
    stream is freed when it returns."""
    try:
        return _run_seed(cfg, seed, *_seed_data(cfg, seed, manifest), artifact_dir), None
    except Exception as exc:
        return [], _failure(seed, exc)


# (set, get) thread-count symbols of numpy's OpenBLAS: the scipy-openblas64
# build numpy's wheels bundle, then a plain OpenBLAS
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_threads():
    """``(set, get)``, the thread-count functions of the OpenBLAS that numpy
    ships beside itself, looked up once; ``None`` when no library there
    loads with both."""
    import ctypes

    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for set_name, get_name in _BLAS_SYMBOLS:
            set_threads, get_threads = getattr(dll, set_name, None), getattr(dll, get_name, None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextmanager
def _one_blas_thread():
    """OpenBLAS held to one thread inside the block and the count it had
    restored after it, also on error.  A run's seeds are single-threaded
    work on small matrices, and pooled seeds already fill the cores, so a
    BLAS thread per core costs CPU and wall time; a forked worker inherits
    the pin.  Without the functions the block runs unpinned."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    set_threads, get_threads = threads
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


# a seed worker is a fork of this process, which Windows lacks and macOS's
# system libraries do not survive, so seeds stay in-process there
_CAN_FORK = hasattr(os, "fork") and sys.platform != "darwin"

# the run a pool worker serves, set by _worker_start in the worker alone
_worker_run: tuple | None = None


def _worker_start(cfg: RunConfig, manifest, artifact_dir: Path | None) -> None:
    """A forked worker's set-up.  Fork hands ``initargs`` over as memory, so
    a manifest suite is shared copy-on-write, not pickled, and the worker
    inherits the run's one-thread BLAS pin (:func:`_one_blas_thread`)."""
    global _worker_run
    _worker_run = cfg, manifest, artifact_dir


def _worker_seed(seed: int):
    cfg, manifest, artifact_dir = _worker_run
    return _seed_task(cfg, seed, manifest, artifact_dir)


def _pooled(cfg: RunConfig, manifest, artifact_dir: Path | None, workers: int) -> list:
    """Each seed's ``_seed_task`` outcome, from a pool of ``workers`` forked
    processes.  A worker that dies fails every seed it leaves unfinished, by
    name; the ``with`` block joins every worker, also on error."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a worker starts from this process's memory, and the
    # executor forks every worker before it starts a thread of its own
    context = multiprocessing.get_context("fork")
    outcomes = []
    with ProcessPoolExecutor(workers, context, _worker_start, (cfg, manifest, artifact_dir)) as pool:
        futures = [(seed, pool.submit(_worker_seed, seed)) for seed in cfg.seeds]
        for seed, future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # the pool broke: BrokenProcessPool
                outcomes.append(([], _failure(seed, exc)))
    return outcomes


def _watched() -> str | None:
    """Why this run must keep its seeds in this process, or ``None``.  A
    tracer here cannot see into a worker: a name this module looks up that
    was replaced since import (``bench/layertrace.py``, a test's spy)."""
    now = globals()
    replaced = sorted(name for name, value in _AS_IMPORTED.items() if now.get(name) is not value)
    return f"{', '.join(replaced)} replaced since import" if replaced else None


def run_benchmark(cfg: RunConfig, artifact_dir=None) -> BenchmarkReport:
    """Execute every seed and aggregate.

    :func:`preflight` runs first and loads a manifest suite once for every
    seed; a fault it finds, or in then making the artifact directory's
    ``checkpoints`` and ``logs``, ends the run before any seed.
    A failing seed is recorded under ``failures`` and does not abort the
    others.  Synthetic data is generated per seed, from ``synth_spec`` with
    that seed (a run config takes no ``data.synth.seed``).  A seed's stream
    goes straight into ``_run_seed``, so its rows are freed when the seed
    ends.  Seeds run side by side on ``min(usable_cores(), len(seeds))``
    forked workers, so N workers hold N seeds' streams at once, each
    writing its own seed's checkpoints and logs.  They run one after
    another in this process, each seed's rows freed before the next's are
    made, on one worker, where the platform cannot fork safely, and while
    a tracer in this process could not see a worker: a function this
    module looks up was replaced since import.  The last case logs one
    INFO line on ``cilbench.protocol`` saying why.  Either way the seeds
    run at one OpenBLAS thread, and the count is restored after them.
    """
    manifest = preflight(cfg)
    artifact_dir = Path(artifact_dir) if artifact_dir else None
    if artifact_dir is not None:
        for sub in ("checkpoints", "logs"):
            (artifact_dir / sub).mkdir(parents=True, exist_ok=True)
    workers = min(usable_cores(), len(cfg.seeds)) if _CAN_FORK else 1
    if workers > 1 and (why := _watched()):
        _log.info("seeds run in this process: %s", why)
        workers = 1
    with _one_blas_thread():
        if workers > 1:
            outcomes = _pooled(cfg, manifest, artifact_dir, workers)
        else:
            outcomes = [_seed_task(cfg, seed, manifest, artifact_dir) for seed in cfg.seeds]
    records = [r for seed_records, _ in outcomes for r in seed_records]
    failures = [f for _, f in outcomes if f is not None]
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


# every function and class this module looks up, as imported, for
# _watched: taken last, once all are bound
_AS_IMPORTED = {name: value for name, value in globals().items() if callable(value)}
