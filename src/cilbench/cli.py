"""Command-line entry point: generate data, run benchmarks, emit reports.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime
failure.  Errors print one machine-parsable line to stderr with the
prefix ``CILBENCH-ERROR [kind]:``.  Seeds run one after another.
``report`` re-checks the aggregates of the report it reads against its
records (exit 2 when they disagree or the document is not a report).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .protocol import (
    BenchmarkReport,
    ConfigError,
    RunConfig,
    emit_report,
    run_benchmark,
    verify_consistency,
)
from .synthgen import SynthSpec, write_synth_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


def _fail(kind: str, message: str, code: int) -> int:
    print(f"CILBENCH-ERROR [{kind}]: {message}", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cilbench",
        description="Deterministic OOD-detection benchmark over class-incremental training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synth", help="generate a synthetic benchmark suite")
    gen.add_argument("--spec", required=True, help="JSON file of generator settings")
    gen.add_argument("--out", required=True, help="output directory")

    run = sub.add_parser("run", help="run a benchmark and write report files")
    run.add_argument("--config", required=True, help="run configuration JSON")
    run.add_argument("--seed-override", type=int, default=None)
    run.add_argument("--out", default=None, help="output directory (defaults to config out_dir)")

    rep = sub.add_parser(
        "report", help="check a report.json against its records and re-emit csv/markdown"
    )
    rep.add_argument("--in", dest="input", required=True)
    rep.add_argument("--format", choices=("md", "csv"), required=True)
    rep.add_argument("--out", default=None, help="output directory (defaults alongside input)")

    val = sub.add_parser("validate-config", help="check a run configuration")
    val.add_argument("--config", required=True)
    return parser


def _cmd_gen_synth(args) -> int:
    try:
        spec = SynthSpec.from_dict(json.loads(Path(args.spec).read_text()))
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail("config", f"bad synth spec: {exc}", EXIT_CONFIG)
    try:
        manifest = write_synth_suite(spec, args.out)
    except OSError as exc:
        return _fail("data", f"cannot write suite: {exc}", EXIT_DATA)
    print(manifest)
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        cfg = RunConfig.from_json(args.config)
        if args.seed_override is not None:
            cfg = replace(cfg, seeds=(args.seed_override,))
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        return _fail("config", "no output directory (set out_dir or pass --out)", EXIT_CONFIG)
    try:
        report = run_benchmark(cfg, artifact_dir=out_dir)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except Exception as exc:
        return _fail("runtime", f"{type(exc).__name__}: {exc}", EXIT_RUNTIME)
    if report.aggregates["effective_seeds"] == 0:
        first = report.failures[0]["error"] if report.failures else "no seeds ran"
        if first.startswith("data:"):
            return _fail("data", first, EXIT_DATA)
        return _fail("runtime", f"all seeds failed: {first}", EXIT_RUNTIME)
    try:
        paths = emit_report(report, out_dir)
    except OSError as exc:
        return _fail("runtime", f"cannot write report: {exc}", EXIT_RUNTIME)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        doc = json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail("data", f"cannot read report: {exc}", EXIT_DATA)
    out_dir = args.out or Path(args.input).parent
    fmt = {"md": "markdown", "csv": "csv"}[args.format]
    try:
        report = BenchmarkReport.from_dict(doc)
        if not verify_consistency(report):
            return _fail("data", f"aggregates disagree with the records in {args.input}", EXIT_DATA)
        paths = emit_report(report, out_dir, formats=(fmt,))
    except OSError as exc:
        return _fail("runtime", f"cannot write report: {exc}", EXIT_RUNTIME)
    except (AttributeError, KeyError, TypeError) as exc:  # not the shape of a report
        return _fail("data", f"malformed report: {type(exc).__name__}: {exc}", EXIT_DATA)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        RunConfig.from_json(args.config)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    print("ok")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "gen-synth": _cmd_gen_synth,
        "run": _cmd_run,
        "report": _cmd_report,
        "validate-config": _cmd_validate,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
