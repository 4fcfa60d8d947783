"""Deterministic benchmark engine for OOD detection under
class-incremental learning: expandable linear classifiers over feature
task streams with replay memory, post-hoc and fine-tuning OOD scoring,
and an incremental evaluation protocol with exact metrics."""

from .cil import CilConfig, CilModel, evaluate_accuracy, train_task
from .data import (
    FeatureDataset,
    MemoryBuffer,
    OodEntry,
    OodSuite,
    RowView,
    TaskStream,
    load_dataset,
    load_suite_manifest,
    ood_order,
    ood_subset,
    save_dataset,
    split_tasks,
)
from .finetune import BerConfig, finetune_step_loop
from .metrics import auroc, average_precision, fpr_at_tpr95
from .model import LinearHead, load_head, save_head
from .numerics import RngStream
from .posthoc import PosthocParams, fit_scorer, score_batch
from .protocol import BenchmarkReport, RunConfig, emit_report, run_benchmark
from .synthgen import SynthSpec, generate, write_synth_suite

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "BerConfig",
    "CilConfig",
    "CilModel",
    "FeatureDataset",
    "LinearHead",
    "MemoryBuffer",
    "OodEntry",
    "OodSuite",
    "PosthocParams",
    "RngStream",
    "RowView",
    "RunConfig",
    "SynthSpec",
    "TaskStream",
    "auroc",
    "average_precision",
    "evaluate_accuracy",
    "emit_report",
    "finetune_step_loop",
    "fit_scorer",
    "fpr_at_tpr95",
    "generate",
    "load_dataset",
    "load_head",
    "load_suite_manifest",
    "ood_order",
    "ood_subset",
    "run_benchmark",
    "save_dataset",
    "save_head",
    "score_batch",
    "split_tasks",
    "train_task",
    "write_synth_suite",
]
