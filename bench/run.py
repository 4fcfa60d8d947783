"""Benchmark of cilbench's run path: set-up, timed passes, output checks.

    python3 bench/run.py --workload desk_grid --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and reads the shipped configs from ``configs/``.  Workloads are
defined in ``workloads.py``.  A run sets its workload up several times and
reports the median set-up time, then runs timed passes over the workload's
cells, at least one and as many as fit in ``--seconds``, and reports the
median pass.  Every report a pass writes is checked.  ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics of
``layertrace.py`` instead.

Everything is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Artifacts go to ``.bench_work/<workload>/`` in the checkout.
"""
import argparse
import ctypes
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One OpenBLAS thread.  Cells run with ``threads: 1`` on small matrices, so
# on a 2-core shared machine a second BLAS thread mostly spins: the
# scaled_ber cell took 24.0-26.4 s of wall time at the default 2 threads
# against 24.5 s at 1, but 46-51 s of CPU time against 24.5 s.  Set before
# numpy loads, which happens only when the package is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
BLAS_PIN_REASON = (
    "single-threaded cells on small matrices: a second OpenBLAS thread doubled "
    "CPU time without lowering wall time on a 2-core machine"
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUIRED = ("src/cilbench/__init__.py", "configs/example_run.json", "configs/example_ber_run.json")
SETUP_REPEATS = 5
# end-to-end metrics in the result line; all seven are printed.  Left out:
# failed_frac, which is 0 on a good run (failures reach the result as
# "failed" and "correct"), and fpr95_mean, whose spread across workload
# seeds (9-14% of its median over five seeds) is too wide for a bound.
REPORTED = ("wall_s", "setup_s", "peak_rss_mb", "auroc_mean", "acc_mean")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cilbench, cilbench.cli; print(time.perf_counter() - t)"
)


class _DropEmptyMemoryWarning(logging.Filter):
    """Step 1 has no replay memory by design; BER warns about it each seed."""

    def filter(self, record):
        return "empty replay memory" not in record.getMessage()


def _git_sha() -> str:
    """HEAD of the checkout, read without running git; "none" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cilbench").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> tuple[str, int | None]:
    """OpenBLAS version from numpy's build config and the thread count in
    effect, asked of the loaded library (None when it cannot be asked)."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    version = f"{blas.get('name')} {blas.get('version')}"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class CellCheck:
    """What the output check found in one written report.json."""

    sha256: str
    over_steps: dict
    problems: list[str]
    failed_seeds: int
    seeds: int


def _check_report(path: Path) -> CellCheck:
    from cilbench.protocol import BenchmarkReport, verify_consistency

    raw = path.read_bytes()
    report = BenchmarkReport.from_dict(json.loads(raw))
    agg = report.aggregates
    problems = [f"seed {f['seed']} failed: {f['error']}" for f in report.failures]
    if not report.records:
        problems.append("no records")
    if not verify_consistency(report):
        problems.append("aggregates disagree with records")
    values = [(k, r[k]) for r in report.records for k in ("acc", "auroc", "fpr95", "ap")]
    values += [(k, agg["over_steps"][k]) for k in ("acc", "auroc", "fpr95", "ap")]
    bad = [k for k, v in values if not (isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        problems.append(f"{len(bad)} values outside [0, 1] or not finite ({sorted(set(bad))})")
    return CellCheck(
        hashlib.sha256(raw).hexdigest(), agg["over_steps"], problems,
        len(report.failures), agg["requested_seeds"],
    )


@dataclass
class Pass:
    seconds: float
    cells: dict[str, CellCheck]

    @property
    def attempted(self) -> int:
        return sum(c.seeds for c in self.cells.values())

    @property
    def failed(self) -> int:
        """Failed seeds plus cells that fail the output check."""
        return sum(c.failed_seeds + bool(c.problems) for c in self.cells.values())


def _timed_pass(workload, out: Path) -> Pass:
    """Run every cell of the workload as ``cilbench run`` does, then check
    the reports; only the runs are timed."""
    from cilbench import protocol

    shutil.rmtree(out, ignore_errors=True)
    t0 = perf_counter()
    for cell in workload.cells:
        report = protocol.run_benchmark(cell.cfg, artifact_dir=out / cell.label)
        protocol.emit_report(report, out / cell.label)
    seconds = perf_counter() - t0
    return Pass(seconds, {c.label: _check_report(out / c.label / "report.json") for c in workload.cells})


def _run(args, workload_cls) -> dict:
    from layertrace import LAYER_METRICS, Tracer, install

    import numpy as np

    blas_version, blas_threads = _blas()
    provenance = {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "blas_pin_reason": BLAS_PIN_REASON,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workload_cls(ROOT, args.seed, work)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        t0 = perf_counter()
        workload.setup()
        setups.append(imported + perf_counter() - t0)

    passes = []
    problems = []
    if args.trace:
        passes.append(_timed_pass(workload, work / "out"))
        tracer = Tracer()
        install(tracer)
        try:
            traced = _timed_pass(workload, work / "out")
        finally:
            tracer.restore()
        passes.append(traced)
        if tracer.self_sum() > traced.seconds:
            problems.append(f"traced self times {tracer.self_sum():.3f} s exceed traced wall {traced.seconds:.3f} s")
    else:
        # another pass only if it should end within --seconds of the first
        start = perf_counter()
        while not passes or (
            perf_counter() - start + statistics.fmean(p.seconds for p in passes) <= args.seconds
        ):
            passes.append(_timed_pass(workload, work / "out"))
    shutil.rmtree(work / "suite", ignore_errors=True)

    for cell in workload.cells:
        first = passes[0].cells[cell.label]
        ref = cell.reference_sha256
        status = "" if ref is None else (" reference=match" if first.sha256 == ref else " reference=MISMATCH")
        print(f"cell {args.workload}/{cell.label} report.json sha256={first.sha256}{status}"
              f" check={'; '.join(first.problems) or 'ok'}")
        for done in passes:
            problems.extend(f"{cell.label}: {msg}" for msg in done.cells[cell.label].problems)
            if done.cells[cell.label].sha256 != first.sha256:
                problems.append(f"{cell.label}: report bytes differ between passes")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = [p.seconds for p in passes[:1]] if args.trace else [p.seconds for p in passes]
    over = [c.over_steps for c in passes[0].cells.values()]
    end_to_end = {
        "wall_s": (statistics.median(untraced), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "frac"),
        "auroc_mean": (statistics.fmean(o["auroc"] for o in over), "frac"),
        "fpr95_mean": (statistics.fmean(o["fpr95"] for o in over), "frac"),
        "acc_mean": (statistics.fmean(o["acc"] for o in over), "frac"),
    }
    print(f"passes {len(passes)}: " + " ".join(f"{p.seconds:.3f}" for p in passes) + " s;"
          f" set-ups: " + " ".join(f"{s:.3f}" for s in setups) + " s")
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value:.6g} {unit}")

    if args.trace:
        values = {name: tracer.metric(name) for name, *_ in LAYER_METRICS}
        values["trace.traced_wall_s"] = traced.seconds
        values["trace.self_sum_s"] = tracer.self_sum()
        values["trace_overhead_frac"] = traced.seconds / passes[0].seconds - 1.0
        for name, unit, _better, moves in LAYER_METRICS:
            print(f"{name} = {values[name]:.6g} {unit}  (moves {moves})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in LAYER_METRICS}
    else:
        metrics = {
            name: {"value": end_to_end[name][0], "unit": end_to_end[name][1]}
            for name in REPORTED
        }
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a cilbench source checkout, missing {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    logging.getLogger("cilbench.finetune").addFilter(_DropEmptyMemoryWarning())

    result = _run(args, WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
