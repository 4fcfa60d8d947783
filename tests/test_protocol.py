import json
import re

import numpy as np
import pytest

import cilbench.protocol as protocol
from cilbench.cil import CilConfig
from cilbench.data import FormatError
from cilbench.finetune import BerConfig
from cilbench.posthoc import PosthocParams
from cilbench.protocol import (
    PHASES,
    BenchmarkReport,
    ConfigError,
    RunConfig,
    emit_report,
    run_benchmark,
    verify_consistency,
)
from cilbench.synthgen import SynthSpec

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


def test_acc_trajectory_unaffected_by_finetuner():
    base = run_benchmark(small_config())
    tuned = run_benchmark(small_config(ood={"method": "ber"}))
    acc_of = lambda rep: [(r["seed"], r["step"], r["acc"]) for r in rep.records]
    assert acc_of(base) == acc_of(tuned)


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
    assert report.aggregates["consistency_ok"]


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

    def flaky(cfg, seed, data, artifact_dir):
        if seed == 1:
            raise RuntimeError("boom")
        return original(cfg, seed, data, artifact_dir)

    monkeypatch.setattr(protocol, "_run_seed", flaky)
    report = run_benchmark(small_config())
    assert report.aggregates["effective_seeds"] == 1
    assert report.failures == [{"seed": 1, "error": "RuntimeError: boom"}]


@pytest.mark.parametrize(
    "exc, error",
    [(FormatError("bad manifest"), "data: bad manifest"), (RuntimeError("boom"), "RuntimeError: boom")],
)
def test_manifest_load_failure_fails_every_seed(monkeypatch, exc, error):
    def failing(path):
        raise exc

    monkeypatch.setattr(protocol, "load_suite_manifest", failing)
    report = run_benchmark(small_config(data={"manifest": "suite.json"}))
    assert report.failures == [{"seed": 0, "error": error}, {"seed": 1, "error": error}]


def test_scorer_fit_uses_step_rows_only(monkeypatch):
    """The per-step refit must see exactly new-task train + memory rows."""
    seen_counts = []
    original = protocol.fit_scorer

    def spy(name, model, fit_features, params=None):
        seen_counts.append(np.asarray(fit_features).shape[0])
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
