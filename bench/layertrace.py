"""Per-layer tracing for the benchmark, installed from outside the package.

Each layer function is replaced, for the length of one traced pass, by a
wrapper that records its call count, busy time and self time (busy time
minus the time of traced calls made inside it).  The wrapper must replace
the name in the module that looks it up: ``protocol`` imports
``train_task``, ``score_batch``, ``auroc`` and the other layer functions
by name, and ``cil`` and ``finetune`` do the same for ``ce_loss`` and
``sgd_step``.  Spans are aggregated as they close, so nothing is written
during the pass.

``LAYER_METRICS`` is the fixed set of per-layer metrics, each with the
end-to-end metric and workload it should move.  A traced run reports
every one of them; a layer a workload does not run reads 0.
"""
from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

SCORERS = (
    "msp",
    "maxlogit",
    "energy",
    "gen",
    "odin",
    "react",
    "klm",
    "nnguide",
    "relation_simplified",
)

# (name, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("protocol.run_benchmark.self_s", "s", "lower", "wall_s on desk_grid"),
    ("protocol.emit_report.busy_s", "s", "lower", "wall_s on desk_grid"),
    ("protocol.emit_report.bytes", "bytes", "lower", "wall_s on desk_grid"),
    ("model.save_head.busy_s", "s", "lower", "wall_s on desk_grid"),
    ("model.save_head.calls", "count", "lower", "wall_s on desk_grid"),
    ("synthgen.generate.busy_s", "s", "lower", "wall_s on desk_grid and scaled_ber"),
    ("synthgen.generate.calls", "count", "lower", "wall_s on desk_grid and scaled_ber"),
    ("data.load_suite_manifest.busy_s", "s", "lower", "wall_s and setup_s on scaled_bank"),
    ("data.load_suite_manifest.bytes_read", "bytes", "lower", "wall_s and setup_s on scaled_bank"),
    ("data.split_tasks.busy_s", "s", "lower", "wall_s on scaled_bank"),
    ("data.ood_subset.busy_s", "s", "lower", "wall_s on scaled_bank"),
    ("data.rebalance_memory.busy_s", "s", "lower", "wall_s on scaled_bank and scaled_ber"),
    ("data.herding_select.busy_s", "s", "lower", "wall_s on scaled_bank and scaled_ber"),
    ("data.herding_select.calls", "count", "lower", "wall_s on scaled_bank and scaled_ber"),
    ("cil.train_task.busy_s", "s", "lower", "wall_s on every workload"),
    ("cil.train_task.self_s", "s", "lower", "wall_s on every workload"),
    ("cil.train_task.calls", "count", "lower", "wall_s on every workload"),
    ("cil.evaluate_accuracy.busy_s", "s", "lower", "wall_s on every workload"),
    ("cil.ce_loss.calls", "count", "lower", "wall_s on scaled_ber"),
    ("cil.ce_loss.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("finetune.ce_loss.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("model.sgd_step.calls", "count", "lower", "wall_s on scaled_ber"),
    ("model.sgd_step.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("finetune.finetune_step_loop.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("finetune.finetune_step_loop.self_s", "s", "lower", "wall_s on scaled_ber"),
    ("finetune.synth_pseudo_ood.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("finetune.synth_pseudo_ood.calls", "count", "lower", "wall_s on scaled_ber"),
    ("finetune.synth_pseudo_ood.yield", "frac", "higher", "flat on scaled_ber"),
    ("finetune.synth_old_mix.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("finetune.nter_loss.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("finetune.oter_loss.busy_s", "s", "lower", "wall_s on scaled_ber"),
    ("posthoc.fit_scorer.busy_s", "s", "lower", "wall_s on desk_grid and scaled_bank"),
    ("posthoc.score_batch.busy_s", "s", "lower", "wall_s on desk_grid and scaled_bank"),
    ("posthoc.score_batch.rows", "count", "lower", "wall_s on desk_grid and scaled_bank"),
    *(
        (f"posthoc.score_batch.{s}.busy_s", "s", "lower", "wall_s on desk_grid and scaled_bank")
        for s in SCORERS
    ),
    ("posthoc.score_batch.bank_cells", "count", "lower", "peak_rss_mb and wall_s on scaled_bank"),
    ("metrics.auroc.busy_s", "s", "lower", "wall_s on desk_grid"),
    ("metrics.fpr_at_tpr95.busy_s", "s", "lower", "wall_s on desk_grid"),
    ("metrics.average_precision.busy_s", "s", "lower", "wall_s on desk_grid"),
    ("metrics.scores_in", "count", "lower", "wall_s on desk_grid"),
    ("trace.traced_wall_s", "s", "lower", "none: the traced pass itself"),
    ("trace.self_sum_s", "s", "lower", "none: must not exceed trace.traced_wall_s"),
    ("trace_overhead_frac", "frac", "lower", "none: traced wall_s / untraced wall_s - 1"),
)


class Tracer:
    """Call counts, busy and self time, and work counters per layer name."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)  # "<name>.calls" and work counters
        self._stack: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Replace ``module.attr`` by a timing wrapper recorded as ``name``.

        ``on_return(tracer, args, kwargs, result, seconds)`` runs after the
        span closes, so its own cost is charged to the caller's self time.
        """
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.busy[name] += dt
                self.self_time[name] += dt - children[0]
                self.counts[f"{name}.calls"] += 1
            if on_return is not None:
                on_return(self, args, kwargs, result, dt)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def self_sum(self) -> float:
        return sum(self.self_time.values())

    def metric(self, name: str) -> float:
        """Value of one ``LAYER_METRICS`` name; 0 for a layer that never ran."""
        if name.endswith(".busy_s"):
            return self.busy.get(name[: -len(".busy_s")], 0.0)
        if name.endswith(".self_s"):
            return self.self_time.get(name[: -len(".self_s")], 0.0)
        if name == "finetune.synth_pseudo_ood.yield":
            offered = self.counts.get("finetune.synth_pseudo_ood.offered", 0.0)
            returned = self.counts.get("finetune.synth_pseudo_ood.returned", 0.0)
            return returned / offered if offered else 0.0
        return self.counts.get(name, 0.0)


def _count_scores(tr, args, kwargs, result, dt):
    tr.counts["metrics.scores_in"] += len(args[0]) + len(args[1])


def _count_score_batch(tr, args, kwargs, result, dt):
    name, _model, fit, X = args[:4]
    tr.busy[f"posthoc.score_batch.{name}"] += dt
    tr.counts["posthoc.score_batch.rows"] += X.shape[0]
    bank = getattr(fit, "bank_features", None)
    if bank is not None:
        tr.counts["posthoc.score_batch.bank_cells"] += X.shape[0] * bank.shape[0]


def _count_pseudo(tr, args, kwargs, result, dt):
    tr.counts["finetune.synth_pseudo_ood.offered"] += len(args[0])
    tr.counts["finetune.synth_pseudo_ood.returned"] += result.rows.shape[0]


def _count_manifest(tr, args, kwargs, result, dt):
    # bytes of the manifest plus each binary dataset it names
    # (16-byte header, float32 features, int32 labels)
    total = os.path.getsize(args[0])
    train, test, suite = result
    for ds in (train, test, *(e.dataset for e in suite.entries)):
        total += 16 + 4 * ds.n * ds.dim + 4 * ds.n
    tr.counts["data.load_suite_manifest.bytes_read"] += total


def _count_emitted(tr, args, kwargs, result, dt):
    tr.counts["protocol.emit_report.bytes"] += sum(os.path.getsize(p) for p in result)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function where its callers look it up."""
    from cilbench import cil, data, finetune, protocol

    w = tracer.wrap
    w(protocol, "run_benchmark", "protocol.run_benchmark")
    w(protocol, "emit_report", "protocol.emit_report", _count_emitted)
    w(protocol, "save_head", "model.save_head")
    w(protocol, "generate", "synthgen.generate")
    w(protocol, "load_suite_manifest", "data.load_suite_manifest", _count_manifest)
    w(protocol, "split_tasks", "data.split_tasks")
    w(protocol, "ood_subset", "data.ood_subset")
    w(cil, "rebalance_memory", "data.rebalance_memory")
    w(data, "herding_select", "data.herding_select")
    w(protocol, "train_task", "cil.train_task")
    w(protocol, "evaluate_accuracy", "cil.evaluate_accuracy")
    w(cil, "ce_loss", "cil.ce_loss")
    w(finetune, "ce_loss", "finetune.ce_loss")
    w(cil, "sgd_step", "model.sgd_step")
    w(finetune, "sgd_step", "model.sgd_step")
    w(protocol, "finetune_step_loop", "finetune.finetune_step_loop")
    w(finetune, "synth_pseudo_ood", "finetune.synth_pseudo_ood", _count_pseudo)
    w(finetune, "synth_old_mix", "finetune.synth_old_mix")
    w(finetune, "nter_loss", "finetune.nter_loss")
    w(finetune, "oter_loss", "finetune.oter_loss")
    w(protocol, "fit_scorer", "posthoc.fit_scorer")
    w(protocol, "score_batch", "posthoc.score_batch", _count_score_batch)
    w(protocol, "auroc", "metrics.auroc", _count_scores)
    w(protocol, "fpr_at_tpr95", "metrics.fpr_at_tpr95", _count_scores)
    w(protocol, "average_precision", "metrics.average_precision", _count_scores)
