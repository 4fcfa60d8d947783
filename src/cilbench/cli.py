"""Command-line entry point: generate data, run benchmarks, emit reports.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime
failure.  ``main`` maps an uncaught error to its exit code, printing one
machine-parsable line to stderr with the prefix ``CILBENCH-ERROR [kind]:``:
``ConfigError`` is ``config``, ``DataError`` is ``data``, anything else
``runtime``; a command prints its own line only for a failed write or a
run with no seed left (exit 3).  Seeds run one after another.
``validate-config`` runs ``protocol.preflight``, every check ``run``
makes before a seed.  ``report`` re-checks a report's aggregates against
its records (exit 2 when they disagree or the document is not a report).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .configcheck import read_json
from .data import DataError
from .protocol import (
    BenchmarkReport,
    ConfigError,
    RunConfig,
    emit_report,
    preflight,
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
    spec = SynthSpec.from_dict(read_json(args.spec, "synth spec", ConfigError))
    try:
        manifest = write_synth_suite(spec, args.out)
    except OSError as exc:
        return _fail("runtime", f"cannot write suite: {exc}", EXIT_RUNTIME)
    print(manifest)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = RunConfig.from_json(args.config)
    if args.seed_override is not None:
        cfg = replace(cfg, seeds=(args.seed_override,))
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("no output directory (set out_dir or pass --out)")
    report = run_benchmark(cfg, artifact_dir=out_dir)
    if report.aggregates["effective_seeds"] == 0:
        first = report.failures[0]["error"] if report.failures else "no seeds ran"
        return _fail("runtime", f"all seeds failed: {first}", EXIT_RUNTIME)
    try:
        paths = emit_report(report, out_dir)
    except OSError as exc:
        return _fail("runtime", f"cannot write report: {exc}", EXIT_RUNTIME)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_report(args) -> int:
    doc = read_json(args.input, "report", DataError)
    out_dir = args.out or Path(args.input).parent
    try:
        report = BenchmarkReport.from_dict(doc)
        if not verify_consistency(report):
            raise DataError(f"aggregates disagree with the records in {args.input}")
        paths = emit_report(report, out_dir, formats=(args.format,))
    except OSError as exc:
        return _fail("runtime", f"cannot write report: {exc}", EXIT_RUNTIME)
    except (AttributeError, KeyError, TypeError) as exc:  # not the shape of a report
        raise DataError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    preflight(RunConfig.from_json(args.config))
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
    try:
        return handler(args)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", str(exc), EXIT_DATA)
    except Exception as exc:
        return _fail("runtime", f"{type(exc).__name__}: {exc}", EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
