import json
import logging
import multiprocessing
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cilbench.protocol as protocol
from cilbench.cil import CilConfig
from cilbench.data import DataError, FeatureDataset, RowView
from cilbench.finetune import BerConfig
from cilbench.numerics import RngStream
from cilbench.posthoc import PosthocParams, fit_scorer
from cilbench.protocol import (
    PHASES,
    BenchmarkReport,
    ConfigError,
    RunConfig,
    emit_report,
    preflight,
    run_benchmark,
    verify_consistency,
)
from cilbench.synthgen import SynthSpec, write_synth_suite

REPO = Path(__file__).resolve().parent.parent

SMALL_SYNTH = {
    "n_classes": 8,
    "dim": 16,
    "n_train_per_class": 40,
    "n_test_per_class": 20,
    "n_ood_per_set": 60,
}


def small_config(**over):
    doc = {
        "data": {"synth": SMALL_SYNTH},
        "step_size": 4,
        "memory_budget": 40,
        "cil": {"method": "replay", "epochs_per_task": 4, "batch_size": 64},
        "ood": {"method": "energy"},
        "seeds": [0, 1],
        "threads": 1,
    }
    doc.update(over)
    return RunConfig.from_dict(doc)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(seeds=[])
    with pytest.raises(ConfigError):
        small_config(ood={"method": "mahalanobis"})
    with pytest.raises(ConfigError):
        small_config(step_size=1)
    with pytest.raises(ConfigError):
        small_config(data={})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"data": {"synth": SMALL_SYNTH}, "bogus_field": 1})
    with pytest.raises(ConfigError):
        small_config(cil={"method": "replay", "epochs_per_task": 0})
    with pytest.raises(ConfigError):
        small_config(ood={"method": "ber", "params": {"alpha": -1}})


@pytest.mark.parametrize(
    "over, message",
    [
        ({"cil": {"head_init": "zeros"}}, r"^unknown cil config fields: \['head_init'\]$"),
        ({"data": {"synth": {"n_classes": 2}}}, r"^bad synth spec: need at least 4 classes$"),
        ({"ood": {"method": "ber", "params": []}}, r"^bad fine-tune params: not an object"),
        ({"ood": {"method": "nnguide", "params": {"knn_k": 0}}}, r"^bad scorer params: gen_top_m and knn_k"),
        ({"ood": {"method": "msp", "score_with": "energy"}},
         r"^unknown ood fields for post-hoc 'msp': \['score_with'\]$"),
        ({"data": {"synth": {**SMALL_SYNTH, "seed": 3}}},
         r"^data.synth.seed is not a run setting: each run seed generates its own suite$"),
    ],
)
def test_config_error_names_the_section(over, message):
    with pytest.raises(ConfigError, match=message):
        small_config(**over)


def test_preflight_checks_a_config_against_its_data(tmp_path):
    # RunConfig checks the document; whether its data can run is preflight's
    assert preflight(small_config()) is None
    too_small = small_config(data={"synth": {**SMALL_SYNTH, "n_ood_per_set": 3}}, step_size=2)
    message = r"^an OOD set of 3 rows is empty at step 1 of 4; each set needs at least 4 rows$"
    with pytest.raises(ConfigError, match=message):
        preflight(too_small)
    with pytest.raises(ConfigError, match=message):
        run_benchmark(too_small, artifact_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=r"^step_size 9 exceeds class count 8$"):
        preflight(small_config(step_size=9))
    spec = SynthSpec(**SMALL_SYNTH)
    manifest = write_synth_suite(spec, tmp_path / "suite")
    train, test, suite = preflight(small_config(data={"manifest": str(manifest)}))
    assert (train.n_classes, test.n_classes) == (8, 8)
    assert len(suite.entries) == spec.n_near_sets + spec.n_far_sets


def test_sections_are_parsed_once_at_construction(monkeypatch):
    cfg = small_config(ood={"method": "ber", "params": {"epochs": 2, "beta_params": [2.0, 3.0]}})
    assert cfg.finetune_params == BerConfig(epochs=2, beta_params=(2.0, 3.0))
    assert (cfg.scorer, cfg.scorer_params) == ("energy", PosthocParams())
    assert cfg.cil_config == CilConfig(method="replay", epochs_per_task=4, batch_size=64)
    assert cfg.synth_spec == SynthSpec(**SMALL_SYNTH)
    posthoc = small_config(ood={"method": "nnguide", "params": {"knn_k": 3}})
    assert posthoc.finetune_params is None
    assert (posthoc.scorer, posthoc.scorer_params) == ("nnguide", PosthocParams(knn_k=3))

    built = []

    def counting(cls):
        post_init = cls.__post_init__

        def spy(self):
            built.append(cls.__name__)
            post_init(self)

        return spy

    for cls in (CilConfig, BerConfig, PosthocParams):
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    monkeypatch.setattr(protocol, "parse_section", lambda cls, *a: built.append(cls.__name__))
    report = run_benchmark(cfg)
    assert report.aggregates["effective_seeds"] == 2
    assert built == []


def test_report_shape_contract():
    cfg = small_config()
    report = run_benchmark(cfg)
    # 2 seeds x 2 steps x 4 OOD datasets
    assert len(report.records) == 2 * 2 * 4
    assert report.aggregates["effective_seeds"] == 2
    assert report.failures == []
    steps = {e["step"] for e in report.aggregates["per_step"]}
    assert steps == {1, 2}


def test_ood_ratio_fixed_across_steps():
    cfg = small_config(seeds=[0])
    report = run_benchmark(cfg)
    per_task_test = SMALL_SYNTH["n_test_per_class"] * cfg.step_size
    ratios = sorted(
        {r["n_ood_test"] / r["n_id_test"] for r in report.records}
    )
    assert ratios[-1] - ratios[0] <= 1.0 / per_task_test


def trajectory_files(out):
    """The CIL head checkpoints and train logs of a run, by relative path."""
    files = [*out.glob("checkpoints/head_seed*_step*.och"), *out.glob("logs/train_seed*.jsonl")]
    return {f.relative_to(out).as_posix(): f.read_bytes() for f in files}


@pytest.fixture(scope="module")
def energy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("energy")
    return run_benchmark(small_config(), artifact_dir=out), trajectory_files(out)


@pytest.mark.parametrize("method", ["nnguide", "odin", "ber", "t2fnorm"])
def test_acc_trajectory_unaffected_by_finetuner(tmp_path, energy_run, method):
    # neither a post-hoc scorer nor a fine-tuner may change the CIL steps
    base, base_files = energy_run
    tuned = run_benchmark(small_config(ood={"method": method}), artifact_dir=tmp_path)
    acc_of = lambda rep: [(r["seed"], r["step"], r["acc"]) for r in rep.records]
    assert acc_of(base) == acc_of(tuned)
    # 2 seeds x 2 steps of checkpoints and 2 train logs
    assert len(base_files) == 6
    assert trajectory_files(tmp_path) == base_files


def test_threads_do_not_change_report(tmp_path):
    r1 = run_benchmark(small_config(threads=1))
    r2 = run_benchmark(small_config(threads=4))
    emit_report(r1, tmp_path / "a", formats=("json",))
    emit_report(r2, tmp_path / "b", formats=("json",))
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config()
    emit_report(run_benchmark(cfg), tmp_path / "a", formats=("json",))
    emit_report(run_benchmark(cfg), tmp_path / "b", formats=("json",))
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_rerun_writes_byte_identical_artifacts(tmp_path):
    # every file but the wall-second timings: reports, train and fine-tune
    # logs, and checkpoints of the CIL and the extra head
    cfg = small_config(
        cil={"method": "replay_distill_wa", "epochs_per_task": 4, "batch_size": 64},
        ood={"method": "ber", "params": {"epochs": 2}},
    )
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        emit_report(run_benchmark(cfg, artifact_dir=out), out)
        files = sorted(
            f.relative_to(out).as_posix() for f in out.rglob("*")
            if f.is_file() and not f.name.startswith("timings_")
        )
        trees.append({f: (out / f).read_bytes() for f in files})
    assert {"report.json", "logs/train_seed1.jsonl", "logs/finetune_seed1.jsonl",
            "checkpoints/extra_head_seed1_step2.och"} <= set(trees[0])
    assert list(trees[0]) == list(trees[1])
    for f in trees[0]:
        assert trees[0][f] == trees[1][f], f


def test_json_round_trip_and_consistency(tmp_path):
    report = run_benchmark(small_config(seeds=[0]))
    paths = emit_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    back = BenchmarkReport.from_dict(doc)
    assert back == report
    assert verify_consistency(back)


def test_csv_and_markdown_outputs(tmp_path):
    cfg = small_config()
    report = run_benchmark(cfg)
    emit_report(report, tmp_path)
    csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 2 * 2 * 4  # header + seeds*steps*datasets
    md = (tmp_path / "report.md").read_text()
    step_rows = [l for l in md.splitlines() if l.startswith("| 1 ") or l.startswith("| 2 ")]
    assert len(step_rows) == 2
    assert "energy" in md


def test_accuracy_decays_while_auc_decline_levels_off():
    # classification keeps degrading step over step, but the OOD metric's
    # step-over-step drop shrinks in later steps (5-seed per-step means)
    cfg = RunConfig.from_dict(
        {
            "data": {"synth": {"n_classes": 20, "dim": 32, "n_train_per_class": 200,
                                "n_test_per_class": 50, "n_ood_per_set": 1000}},
            "step_size": 4,
            "memory_budget": 100,
            "cil": {},
            "ood": {"method": "energy"},
            "seeds": [0, 1, 2, 3, 4],
        }
    )
    agg = run_benchmark(cfg).aggregates["per_step"]
    acc = [e["acc"] for e in agg]
    auc = [e["auroc"] for e in agg]
    assert all(a >= b for a, b in zip(acc, acc[1:]))
    deltas = [abs(b - a) for a, b in zip(auc, auc[1:])]
    third = max(1, len(deltas) // 3)
    assert np.mean(deltas[-third:]) < np.mean(deltas[:third])


def test_failed_seed_recorded_not_fatal(monkeypatch):
    original = protocol._run_seed

    def flaky(cfg, seed, stream, suite, artifact_dir):
        if seed == 1:
            raise RuntimeError("boom")
        return original(cfg, seed, stream, suite, artifact_dir)

    monkeypatch.setattr(protocol, "_run_seed", flaky)
    report = run_benchmark(small_config())
    assert report.aggregates["effective_seeds"] == 1
    assert report.failures == [{"seed": 1, "error": "RuntimeError: boom"}]


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores on any host, so a run of two or more seeds forks a
    pool of two workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def on_cil_stream(monkeypatch, action):
    """Call ``action(seed)`` as each seed draws its CIL stream, in the
    process that runs the seed.  ``RngStream`` is patched, not ``protocol``,
    so the run still forks."""
    child = RngStream.child

    def hooked(self, name):
        if name == "cil":
            action(self.seed)
        return child(self, name)

    monkeypatch.setattr(RngStream, "child", hooked)


class FileLog:
    """Lines appended to a file, which every process a run forks adds to."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def append(self, line):
        with open(self.path, "a") as f:
            f.write(f"{line}\n")

    def lines(self) -> list[str]:
        return self.path.read_text().splitlines()

    def __len__(self):
        return len(self.lines())


def seed_pids(monkeypatch, tmp_path):
    """Log the process that runs each seed; returns a function that reads
    the log as ``{seed: pid}``."""
    log = FileLog(tmp_path / "pids.log")
    on_cil_stream(monkeypatch, lambda seed: log.append(f"{seed} {os.getpid()}"))
    return lambda: {int(seed): int(pid) for seed, pid in map(str.split, log.lines())}


def written_files(out) -> dict:
    """Every file a run wrote under ``out`` but the wall-second timings."""
    return {
        f.relative_to(out).as_posix(): f.read_bytes()
        for f in out.rglob("*") if f.is_file() and not f.name.startswith("timings_")
    }


@pytest.mark.parametrize("config", ["example_run", "example_ber_run"])
def test_pooled_seeds_write_the_files_of_seeds_run_in_process(
    monkeypatch, tmp_path, two_cores, config
):
    cfg = RunConfig.from_json(REPO / "configs" / f"{config}.json")
    assert cfg.seeds == (0, 1, 2)
    pids = seed_pids(monkeypatch, tmp_path)
    emit_report(run_benchmark(cfg, artifact_dir=tmp_path / "pooled"), tmp_path / "pooled")
    assert multiprocessing.active_children() == []
    pooled_pids = pids()
    assert set(pooled_pids) == {0, 1, 2} and os.getpid() not in pooled_pids.values()
    monkeypatch.setattr(protocol, "usable_cores", lambda: 1)
    emit_report(run_benchmark(cfg, artifact_dir=tmp_path / "serial"), tmp_path / "serial")
    pooled, serial = written_files(tmp_path / "pooled"), written_files(tmp_path / "serial")
    assert {"report.json", "logs/train_seed2.jsonl", "checkpoints/head_seed2_step1.och"} <= set(pooled)
    assert list(pooled) == list(serial)
    for f in pooled:
        assert pooled[f] == serial[f], f


def test_a_seed_that_raises_in_a_worker_fails_as_it_does_in_process(monkeypatch, two_cores):
    def boom(seed):
        if seed == 1:
            raise RuntimeError("boom")

    on_cil_stream(monkeypatch, boom)
    cfg = small_config(seeds=[0, 1, 2])
    pooled = run_benchmark(cfg)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(protocol, "usable_cores", lambda: 1)
    assert pooled.failures == [{"seed": 1, "error": "RuntimeError: boom"}]
    assert pooled == run_benchmark(cfg)


def test_a_worker_that_dies_fails_its_unfinished_seeds_by_name(monkeypatch, two_cores):
    parent = os.getpid()

    def die(seed):
        if seed == 1 and os.getpid() != parent:
            os._exit(3)

    on_cil_stream(monkeypatch, die)
    report = run_benchmark(small_config(seeds=[0, 1, 2]))
    assert multiprocessing.active_children() == []
    failed = {f["seed"] for f in report.failures}
    assert 1 in failed
    assert failed.isdisjoint(r["seed"] for r in report.records)
    assert failed | {r["seed"] for r in report.records} == {0, 1, 2}
    assert all(f["error"].startswith("BrokenProcessPool: ") for f in report.failures)


@pytest.mark.parametrize("tracer", ["replaced", "tracemalloc"])
def test_a_traced_run_keeps_its_seeds_in_process(monkeypatch, tmp_path, caplog, two_cores, tracer):
    # a tracer in this process cannot see a worker: bench/layertrace.py
    # replaces protocol's names, as a test's spy does
    pids = seed_pids(monkeypatch, tmp_path)
    if tracer == "replaced":
        monkeypatch.setattr(protocol, "fit_scorer", lambda *args: fit_scorer(*args))
        why = "fit_scorer replaced since import"
    else:
        tracemalloc.start()
        why = "tracemalloc is tracing"
    try:
        with caplog.at_level(logging.INFO, logger="cilbench.protocol"):
            report = run_benchmark(small_config())  # two seeds
    finally:
        tracemalloc.stop()
    assert report.aggregates["effective_seeds"] == 2
    assert pids() == {0: os.getpid(), 1: os.getpid()}
    assert [r.getMessage() for r in caplog.records] == [f"seeds run in this process: {why}"]


@pytest.mark.parametrize("class_order", ["identity", "seeded"])
def test_a_seed_frees_its_rows_before_the_next_seed(class_order):
    # the scaled suite's proportions (100 classes, dim 256, 300/50 rows per
    # class, 5000 per OOD set, steps of 10, budget 2000) at a tenth of the rows
    def config(seeds):
        return small_config(
            data={"synth": {"n_classes": 100, "dim": 256, "n_train_per_class": 30,
                            "n_test_per_class": 5, "n_ood_per_set": 500}},
            step_size=10, memory_budget=200, class_order=class_order,
            cil={"method": "replay", "epochs_per_task": 1}, seeds=seeds,
        )

    def peak(cfg):
        tracemalloc.start()
        try:
            run_benchmark(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_benchmark(config([0]))  # first-call allocations stay out of both peaks
    one, two = peak(config([0])), peak(config([0, 1]))
    # the suite is most of a seed's peak: holding seed 0's rows while
    # seed 1's are made would put the ratio near 1.6 (1.2 for seeded)
    assert two <= 1.1 * one


def test_a_manifest_run_holds_its_suite_and_about_one_float64_set(tmp_path):
    # a step drops each float64 row array once it has read it: the rows a
    # scorer fits from (gathered for a fitted scorer only), the ID test rows
    # once scored and each OOD subset before the next is built.  Kept until
    # the step ended, they put this peak at the stored suite plus 3.4
    # float64 OOD sets; dropped, it is the suite plus 1.6
    spec = SynthSpec(n_classes=8, dim=256, n_train_per_class=200, n_test_per_class=200,
                     n_ood_per_set=2000)
    manifest = write_synth_suite(spec, tmp_path / "suite")
    cfg = small_config(data={"manifest": str(manifest)}, seeds=[0], memory_budget=200,
                       cil={"method": "replay", "epochs_per_task": 2, "batch_size": 128})
    run_benchmark(cfg)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        run_benchmark(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(p.stat().st_size for p in (tmp_path / "suite").glob("*.bin"))
    float64_set = 8 * spec.n_ood_per_set * spec.dim
    assert peak <= stored + 2 * float64_set


@pytest.mark.parametrize("method, fits", [("energy", False), ("react", True)])
def test_a_seed_permutes_each_ood_set_once_and_gathers_rows_only_to_fit(
    monkeypatch, method, fits
):
    calls = {"ood_order": 0, "ood_subset": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(protocol, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(protocol, name, counting)
    # every step calls fit_scorer, which reads rows only for a scorer that fits
    fitting, fit_reads = [False], []

    def fit_spy(*args, _original=protocol.fit_scorer):
        fitting[0] = True
        try:
            return _original(*args)
        finally:
            fitting[0] = False

    monkeypatch.setattr(protocol, "fit_scorer", fit_spy)
    for name in ("read", "widen"):
        def reading(self, *args, _name=name, _original=getattr(RowView, name)):
            if fitting[0]:
                fit_reads.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(RowView, name, reading)
    cfg = small_config(ood={"method": method})  # two seeds of two steps
    run_benchmark(cfg)
    sets = cfg.synth_spec.n_near_sets + cfg.synth_spec.n_far_sets
    assert calls == {"ood_order": 2 * sets, "ood_subset": 2 * 2 * sets}
    assert bool(fit_reads) == fits


def count_dataset_checks(monkeypatch, tmp_path) -> FileLog:
    """Patch ``FeatureDataset``'s check to count its runs, in this process
    and in the run's workers, as lines of the returned log."""
    checks = FileLog(tmp_path / "checks.log")
    check = FeatureDataset.__post_init__

    def counting(self):
        checks.append(1)
        check(self)

    monkeypatch.setattr(FeatureDataset, "__post_init__", counting)
    return checks


@pytest.mark.parametrize(
    "over",
    [{}, {"class_order": "seeded"}, {"ood": {"method": "ber"}}, {"ood": {"method": "nnguide"}}],
    ids=["energy", "seeded", "ber", "nnguide"],
)
def test_rows_are_checked_once_where_they_enter(monkeypatch, tmp_path, over):
    # a seed's suite is checked when generate builds it (ID train, ID test
    # and each OOD set); its task stream, step slices and OOD subsets are
    # plain read-only arrays that are not checked again
    checks = count_dataset_checks(monkeypatch, tmp_path)
    cfg = small_config(**over)  # two seeds
    report = run_benchmark(cfg)
    assert report.aggregates["effective_seeds"] == 2
    spec = cfg.synth_spec
    assert len(checks) == len(cfg.seeds) * (2 + spec.n_near_sets + spec.n_far_sets)


def test_a_manifest_suite_is_checked_once_per_run(monkeypatch, tmp_path):
    spec = SynthSpec(**SMALL_SYNTH)
    manifest = write_synth_suite(spec, tmp_path / "suite")
    checks = count_dataset_checks(monkeypatch, tmp_path)
    report = run_benchmark(small_config(data={"manifest": str(manifest)}))
    assert report.aggregates["effective_seeds"] == 2
    assert len(checks) == 2 + spec.n_near_sets + spec.n_far_sets


@pytest.mark.parametrize(
    "exc", [DataError("bad manifest"), RuntimeError("boom")], ids=["data", "runtime"]
)
def test_a_manifest_load_failure_ends_the_run_before_any_seed(monkeypatch, tmp_path, exc):
    # the load was retried by every seed, each failing alike under `failures`
    calls = []

    def failing(path):
        calls.append(path)
        raise exc

    monkeypatch.setattr(protocol, "load_suite_manifest", failing)
    cfg = small_config(data={"manifest": "suite.json"})  # two seeds
    with pytest.raises(type(exc)) as info:
        run_benchmark(cfg, artifact_dir=tmp_path / "out")
    assert info.value is exc
    assert calls == ["suite.json"]
    assert not (tmp_path / "out").exists()


def test_scorer_fit_uses_step_rows_only(monkeypatch):
    """The per-step refit must see exactly new-task train + memory rows."""
    seen_counts = []
    original = protocol.fit_scorer

    def spy(name, model, fit_features, params=None):
        seen_counts.append(fit_features.shape[0])
        return original(name, model, fit_features, params)

    monkeypatch.setattr(protocol, "fit_scorer", spy)
    cfg = small_config(seeds=[0], ood={"method": "react"})
    run_benchmark(cfg)
    # step 1: task rows only; step 2: task rows + memory (budget 40 over 4 cls)
    task_rows = SMALL_SYNTH["n_train_per_class"] * cfg.step_size
    assert seen_counts == [task_rows, task_rows + 40]


def test_finetuned_methods_score_through_extra_head():
    cfg = small_config(seeds=[0], ood={"method": "t2fnorm", "score_with": "msp"})
    report = run_benchmark(cfg)
    assert len(report.records) == 2 * 4
    assert all(np.isfinite(r["auroc"]) for r in report.records)


def test_seeded_class_order_run(tmp_path):
    cfg = small_config(class_order="seeded")
    emit_report(run_benchmark(cfg), tmp_path / "a", formats=("json",))
    emit_report(run_benchmark(cfg), tmp_path / "b", formats=("json",))
    raw = (tmp_path / "a" / "report.json").read_bytes()
    assert raw == (tmp_path / "b" / "report.json").read_bytes()
    records = json.loads(raw)["records"]
    # each seed shuffles which classes make up each task
    assert records != run_benchmark(small_config()).records
    assert len(records) == 2 * 2 * 4  # seeds x steps x OOD sets
    assert all(np.isfinite(r["acc"]) and np.isfinite(r["auroc"]) for r in records)


def test_artifacts_written(tmp_path):
    cfg = small_config(seeds=[0], ood={"method": "ber"})
    run_benchmark(cfg, artifact_dir=tmp_path)
    assert (tmp_path / "checkpoints" / "head_seed0_step1.och").exists()
    assert (tmp_path / "checkpoints" / "extra_head_seed0_step2.och").exists()
    log = (tmp_path / "logs" / "train_seed0.jsonl").read_text().strip().splitlines()
    assert len(log) == 2 * 4  # steps x epochs
    assert {"task", "epoch", "loss", "lr", "train_acc"} <= set(json.loads(log[0]))


def test_repeated_seed_is_rejected():
    with pytest.raises(ConfigError, match=r"repeated: \[0\]"):
        small_config(seeds=[0, 1, 0])
    with pytest.raises(ConfigError, match=r"repeated: \[2, 5\]"):
        small_config(seeds=[5, 2, 5, 2])


@pytest.mark.parametrize(
    "change, what",
    [
        ({"cil": {"method": "replay", "epochs_per_task": 30, "batch_size": 64, "lr0": 1e6}},
         "CIL training"),
        ({"ood": {"method": "ber", "params": {"lr0": 1e6, "epochs": 30}}}, "ber fine-tuning"),
    ],
)
def test_divergence_is_a_named_seed_failure(change, what):
    with np.errstate(all="ignore"):
        report = run_benchmark(small_config(**{"seeds": [3], **change}))
    assert report.records == []
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure["seed"] == 3
    assert re.match(
        rf"DivergenceError: {what} diverged at seed 3 step \d+ epoch \d+: ", failure["error"]
    )


def test_phase_timings_sidecar(tmp_path):
    cfg = small_config(ood={"method": "ber"})
    report = run_benchmark(cfg, artifact_dir=tmp_path)
    for seed in cfg.seeds:
        lines = (tmp_path / "logs" / f"timings_seed{seed}.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [(r["seed"], r["step"]) for r in rows] == [(seed, 1), (seed, 2)]
        for r in rows:
            assert set(r) == {"seed", "step", *PHASES}
            assert all(isinstance(r[p], float) and r[p] >= 0.0 for p in PHASES)
            assert r["cil_train"] > 0.0 and r["finetune"] > 0.0
    # timings stay out of the report
    assert "timings" not in json.dumps(report.to_dict())


def test_finetune_log_sidecar(tmp_path):
    cfg = small_config(seeds=[0], ood={"method": "ber", "params": {"epochs": 3}})
    report = run_benchmark(cfg, artifact_dir=tmp_path / "ber")
    lines = (tmp_path / "ber" / "logs" / "finetune_seed0.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    epochs = [r for r in rows if "epoch" in r]
    assert [(r["task"], r["epoch"]) for r in epochs] == [(t, e) for t in (1, 2) for e in range(3)]
    assert all({"ce", "l_n", "l_o"} <= set(r) for r in epochs)
    # step 1 has no replay memory: its record says so, and l_o stays 0
    warnings = [r for r in rows if "warning" in r]
    assert [r["task"] for r in warnings] == [1]
    assert rows.index(warnings[0]) < rows.index(epochs[0])
    assert all(r["l_o"] == 0.0 for r in epochs if r["task"] == 1)
    assert any(r["l_o"] > 0.0 for r in epochs if r["task"] == 2)
    assert "l_n" not in json.dumps(report.to_dict())
    # a post-hoc method fine-tunes nothing and writes no fine-tune log
    run_benchmark(small_config(seeds=[0]), artifact_dir=tmp_path / "energy")
    assert not (tmp_path / "energy" / "logs" / "finetune_seed0.jsonl").exists()
    assert (tmp_path / "energy" / "logs" / "train_seed0.jsonl").exists()


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (CilConfig, "batch_size", True),  # a bool is not an integer
        (CilConfig, "method", 3),
        (BerConfig, "alpha", False),  # nor a number
        (BerConfig, "beta_params", (True, True)),  # each element of a tuple too
        (BerConfig, "beta_params", ("1", 2)),
        (BerConfig, "use_oter", 0),
        (PosthocParams, "knn_k", 3.0),
        (SynthSpec, "std", "1"),
    ],
)
def test_config_fields_reject_wrong_types(cls, field, value):
    with pytest.raises(TypeError, match=f"^{field} must be "):
        cls(**{field: value})


def test_number_fields_take_ints():
    assert CilConfig(lr0=1).lr0 == 1
    assert PosthocParams(tau=2).tau == 2
