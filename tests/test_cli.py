import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import cilbench.protocol as protocol
from cilbench.cli import main
from cilbench.data import FeatureDataset, load_dataset, save_dataset

REPO = Path(__file__).resolve().parent.parent

SMALL_RUN = {
    "data": {"synth": {"n_classes": 8, "dim": 16, "n_train_per_class": 30,
                        "n_test_per_class": 10, "n_ood_per_set": 40}},
    "step_size": 4,
    "memory_budget": 32,
    "cil": {"method": "replay", "epochs_per_task": 3, "batch_size": 64},
    "ood": {"method": "energy"},
    "seeds": [0],
}


def test_validate_shipped_configs():
    for name in ("example_run.json", "example_ber_run.json"):
        assert main(["validate-config", "--config", str(REPO / "configs" / name)]) == 0


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"data": {"synth": {"n_classes": 8}}, "ood": {"method": "nope"}}')
    assert main(["validate-config", "--config", str(bad)]) == 1
    assert "CILBENCH-ERROR [config]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"threads": 0},
        # 8 classes in steps of 2 is 4 steps; 3 rows per OOD set give
        # floor(3 / 4) = 0 rows at step 1
        {"data": {"synth": {**SMALL_RUN["data"]["synth"], "n_ood_per_set": 3}},
         "step_size": 2},
        {"step_size": 9},  # more than the 8 classes
        {"data": {"synth": {"n_classes": 2}}},
        {"seeds": [0, 0]},  # would run seed 0 twice and report one seed lost
        {"seeds": 5},
        {"seeds": [0, "x"]},  # would lose seed "x" mid-run
        {"seeds": [True]},
        {"seeds": [0.0]},
        [SMALL_RUN],  # a document that is not an object
        {"memory_budget": 32.5},  # would fail every seed in herding
        {"step_size": 4.0},
        # integer, number and boolean fields of the sub-configs are typed
        {"cil": {"epochs_per_task": 2.5}},
        {"ood": {"method": "ber", "params": {"epochs": 2.5}}},
        {"ood": {"method": "nnguide", "params": {"knn_k": 2.5}}},
        {"ood": {"method": "gen", "params": {"gen_top_m": 2.5}}},
        {"data": {"synth": {**SMALL_RUN["data"]["synth"], "n_classes": 20.0}}},
        {"cil": {"lr0": "0.1"}},
        {"ood": {"method": "ber", "params": {"use_nter": 1}}},
        # the extractor and ood sections
        {"extractor": {"kind": "bogus"}},  # used to run a random projection
        {"extractor": "identity"},
        {"extractor": {"kind": "random_projection", "d_out": 0}},
        {"extractor": {"kind": "random_projection", "dout": 4}},  # used to be ignored
        {"ood": "energy"},
        {"ood": {"method": "energy", "parms": {"tau": 2.0}}},  # used to be ignored
        # values each dataclass checks
        {"cil": {"head_init": "bogus"}},
        {"cil": {"exemplar_strategy": "bogus"}},
        {"ood": {"method": "energy", "params": {"tau": 0}}},
        {"ood": {"method": "odin", "params": {"odin_temperature": 0}}},
        {"ood": {"method": "nnguide", "params": {"knn_k": 0}}},
        {"ood": {"method": "gen", "params": {"gen_top_m": 0}}},  # used to score all classes
        {"ood": {"method": "ber", "params": {"beta_params": [-1, 1]}}},
        {"ood": {"method": "ber", "params": {"batch_size": 0}}},
        # path fields and the data section; each used to fail every seed or
        # to be ignored
        {"data": {"manifest": 5}},
        {"out_dir": 5},
        {"data": {**SMALL_RUN["data"], "manifest": "suite/manifest.json"}},
        {"data": {**SMALL_RUN["data"], "synthh": {}}},
        # non-finite numbers, which Python's json reads from NaN and Infinity
        {"cil": {"lr0": float("nan")}},
        {"ood": {"method": "odin", "params": {"odin_epsilon": float("nan")}}},
        {"ood": {"method": "ber", "params": {"tau": float("inf")}}},
        {"data": {"synth": {**SMALL_RUN["data"]["synth"], "std": float("inf")}}},
        {"ood": {"method": "ber", "params": {"beta_params": [float("nan"), 1]}}},  # used to hang
        {"ood": {"method": "ber", "params": {"init": "copy"}}},  # no longer a field
        # fine-tuner fields on a post-hoc method; both used to be ignored
        {"ood": {"method": "msp", "score_with": "nnguide"}},
        {"ood": {"method": "msp", "scorer_params": {"knn_k": 3, "tau": 7.0}}},
        # each run seed generates its own suite; this key used to change no data
        {"data": {"synth": {**SMALL_RUN["data"]["synth"], "seed": 3}}},
        # features arrive extracted; this used to put a fixed projection
        # before the head
        {"extractor": {"kind": "random_projection", "d_out": 8, "seed": 3}},
        # a zero probability to a negative power is inf, and used to fail
        # every seed at scoring; at 0 every row scores the same
        {"ood": {"method": "gen", "params": {"gen_gamma": -1}}},
        {"ood": {"method": "gen", "params": {"gen_gamma": 0}}},
        # SGD settings that train backwards or let the momentum grow; each
        # used to exit 0 with nonsense results
        {"cil": {"lr0": -0.1}},
        {"cil": {"momentum": 2.0}},
        {"cil": {"weight_decay": -5}},
        {"ood": {"method": "ber", "params": {"lr0": -1}}},
        # RngStream reads seeds modulo 2^64, so these two were one stream
        {"seeds": [-1, 18446744073709551615]},
        # each used to exit 0 with an AUROC below chance or at a tie
        {"cil": {"method": "replay_distill", "distill_weight": -1}},
        {"ood": {"method": "react", "params": {"react_percentile": 0}}},
        {"ood": {"method": "react", "params": {"react_percentile": -5}}},
        {"ood": {"method": "react", "params": {"react_percentile": 100.5}}},
        {"ood": {"method": "odin", "params": {"odin_epsilon": -0.5}}},
        # a negative OOD set count: -1 near sets used to run with no near-OOD
        # set, -1 far sets to fail every seed at generation
        {"data": {"synth": {**SMALL_RUN["data"]["synth"], "n_near_sets": -1}}},
        {"data": {"synth": {**SMALL_RUN["data"]["synth"], "n_far_sets": -1}}},
        {"data": {"synth": {**SMALL_RUN["data"]["synth"], "n_near_sets": 0, "n_far_sets": 0}}},
    ],
)
def test_validate_rejects_unrunnable_config(tmp_path, capsys, change):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, **change} if isinstance(change, dict) else change))
    assert main(["validate-config", "--config", str(cfg)]) == 1
    assert "CILBENCH-ERROR [config]" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("extractor", [{}, {"kind": "identity"}])
def test_identity_extractor_validates_and_runs(tmp_path, extractor):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "extractor": extractor}))
    assert main(["validate-config", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_run_rejects_manifest_with_too_few_ood_rows(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_classes": 8, "dim": 16, "n_train_per_class": 30,
        "n_test_per_class": 10, "n_ood_per_set": 3, "seed": 7,
    }))
    suite_dir = tmp_path / "suite"
    assert main(["gen-synth", "--spec", str(spec), "--out", str(suite_dir)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **SMALL_RUN, "data": {"manifest": str(suite_dir / "manifest.json")}, "step_size": 2,
    }))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "empty at step 1 of 4" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_missing_data_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "data": {"manifest": "no/such/manifest.json"}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "CILBENCH-ERROR [data]" in capsys.readouterr().err


def gen_suite(tmp_path) -> Path:
    """A gen-synth suite of SMALL_RUN's shape; returns its manifest."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], "seed": 7}))
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "suite")]) == 0
    return tmp_path / "suite" / "manifest.json"


def run_manifest(tmp_path, manifest, name, **over) -> int:
    """Exit code of ``cilbench run`` of SMALL_RUN on ``manifest`` into tmp_path/name."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "data": {"manifest": str(manifest)}, **over}))
    return main(["run", "--config", str(cfg), "--out", str(tmp_path / name)])


def test_manifest_suite_is_read_once_per_run(tmp_path, monkeypatch):
    manifest = gen_suite(tmp_path)
    calls = []
    original = protocol.load_suite_manifest

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(protocol, "load_suite_manifest", counting)
    assert run_manifest(tmp_path, manifest, "all", seeds=[0, 1, 2]) == 0
    assert len(calls) == 1
    # the seeds share the loaded data, yet each seed's records are those of
    # a run of that seed alone
    records = json.loads((tmp_path / "all" / "report.json").read_text())["records"]
    for seed in (0, 1, 2):
        assert run_manifest(tmp_path, manifest, f"s{seed}", seeds=[seed]) == 0
        alone = json.loads((tmp_path / f"s{seed}" / "report.json").read_text())["records"]
        assert [r for r in records if r["seed"] == seed] == alone


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_classes", "abc"),
        ("ood", []),
        ("ood", None),  # None: the key is removed
        ("ood", ["far1"]),
        ("ood", [{"name": "far1", "path": 5, "tag": "far"}]),
        ("ood", [{"name": 5, "path": "ood_far1.bin", "tag": "far"}]),
        ("id_train", 5),
    ],
)
def test_run_malformed_manifest_is_a_data_error(tmp_path, capsys, key, value):
    manifest = gen_suite(tmp_path)
    doc = json.loads(manifest.read_text())
    doc[key] = value
    if value is None:
        del doc[key]
    manifest.write_text(json.dumps(doc))
    assert run_manifest(tmp_path, manifest, "out", seeds=[0, 1]) == 2
    assert "CILBENCH-ERROR [data]" in capsys.readouterr().err


def test_run_manifest_id_test_with_classes_id_train_lacks_is_a_data_error(tmp_path, capsys):
    # without n_classes each file used to infer its own class count, and
    # split_tasks left the id_test rows of class 9 out of every step
    manifest = gen_suite(tmp_path)  # 8 classes
    doc = json.loads(manifest.read_text())
    del doc["n_classes"]
    test = load_dataset(manifest.parent / doc["id_test"])
    extra = FeatureDataset(test.features[:25], np.full(25, 9))
    save_dataset(
        FeatureDataset(np.concatenate([test.features, extra.features]),
                       np.concatenate([test.labels, extra.labels])),
        manifest.parent / "id_test_wide.bin",
    )
    doc["id_test"] = "id_test_wide.bin"
    manifest.write_text(json.dumps(doc))
    assert run_manifest(tmp_path, manifest, "out", seeds=[0]) == 2
    err = capsys.readouterr().err
    assert "CILBENCH-ERROR [data]" in err and "'id_test'" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "n_classes, drop_test_class, over, missing",
    [
        # class 8 was a head row that nothing trained or tested
        (9, None, {}, "'id_train' has no rows of classes [8]"),
        # then herding, or a step of only class 8, failed every seed mid-run
        (9, None, {"memory_budget": 90}, "'id_train' has no rows of classes [8]"),
        (9, None, {"step_size": 2}, "'id_train' has no rows of classes [8]"),
        # class 5 was never tested
        (8, 5, {}, "'id_test' has no rows of classes [5]"),
    ],
    ids=["n_classes_9", "n_classes_9_budget_90", "n_classes_9_step_2", "id_test_without_5"],
)
def test_run_manifest_with_a_class_missing_is_a_data_error(
    tmp_path, capsys, n_classes, drop_test_class, over, missing
):
    manifest = gen_suite(tmp_path)  # 8 classes
    doc = json.loads(manifest.read_text())
    doc["n_classes"] = n_classes
    if drop_test_class is not None:
        test = load_dataset(manifest.parent / doc["id_test"])
        keep = np.flatnonzero(test.labels != drop_test_class)
        save_dataset(test.subset(keep), manifest.parent / "id_test_less.bin")
        doc["id_test"] = "id_test_less.bin"
    manifest.write_text(json.dumps(doc))
    over = {"step_size": 3, "memory_budget": 8, **over}
    assert run_manifest(tmp_path, manifest, "out", **over) == 2
    err = capsys.readouterr().err
    assert "CILBENCH-ERROR [data]" in err and missing in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("target", ["id_test", "ood"])
def test_run_manifest_with_mismatched_widths_is_a_data_error(tmp_path, capsys, target):
    manifest = gen_suite(tmp_path)  # 16 features per row
    narrow = FeatureDataset(np.zeros((40, 6)), np.arange(40) % 8, 8)
    save_dataset(narrow, manifest.parent / "narrow.bin")
    doc = json.loads(manifest.read_text())
    if target == "id_test":
        doc["id_test"] = "narrow.bin"
    else:
        doc["ood"][-1]["path"] = "narrow.bin"
    manifest.write_text(json.dumps(doc))
    assert run_manifest(tmp_path, manifest, "out", seeds=[0, 1]) == 2
    err = capsys.readouterr().err
    assert "CILBENCH-ERROR [data]" in err and "6 features per row, id_train has 16" in err


def test_run_without_out_dir_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    assert main(["run", "--config", str(cfg)]) == 1


def test_gen_synth_bad_spec_exits_1(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_classes": 2}')
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1


@pytest.mark.parametrize("counts", [{"n_near_sets": -1}, {"n_far_sets": -1}])
def test_gen_synth_rejects_negative_ood_set_counts(tmp_path, capsys, counts):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], **counts}))
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
    assert "OOD set counts must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# the byte contract: each shipped config, as shipped (seeds 0-2), writes
# this report.json on every platform; a declared re-baseline changes these
# constants and lists the old and new values in CHANGES.md
SHIPPED_REPORT_SHA256 = {
    "example_run": "8344787c6415d7b656e0f0130b85c26a357dd09e6395e37c79b5e58a8cccb5bf",
    "example_ber_run": "109aab39f13929ca14aea8c89316e6e4ffcaf6661a4a6ebfd4c3cef8a413f532",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_REPORT_SHA256))
def test_shipped_config_writes_the_recorded_report_bytes(tmp_path, name):
    config = REPO / "configs" / f"{name}.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == SHIPPED_REPORT_SHA256[name]


# example_run.json at seed 0 with distillation and weight align: neither
# shipped config distills, so this pins the bytes of that path
DISTILL_WA_REPORT_SHA256 = "43db712d1d09ef5a52998ba1ddba8363bd1c2ffa3d6027604bdfc2dcc25c4a33"


def test_distill_wa_config_writes_the_recorded_report_bytes(tmp_path):
    doc = json.loads((REPO / "configs" / "example_run.json").read_text())
    doc["cil"]["method"] = "replay_distill_wa"
    doc["seeds"] = [0]
    config = tmp_path / "distill_wa.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    digest = hashlib.sha256((tmp_path / "run" / "report.json").read_bytes()).hexdigest()
    assert digest == DISTILL_WA_REPORT_SHA256


def test_end_to_end_gen_run_report(tmp_path):
    # generate a 10-class suite, run BER over 5 tasks, inspect report.md
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_classes": 10, "dim": 16, "n_train_per_class": 30,
        "n_test_per_class": 10, "n_ood_per_set": 50, "seed": 7,
    }))
    suite_dir = tmp_path / "suite"
    assert main(["gen-synth", "--spec", str(spec), "--out", str(suite_dir)]) == 0
    assert (suite_dir / "manifest.json").exists()

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "data": {"manifest": str(suite_dir / "manifest.json")},
        "step_size": 2,
        "memory_budget": 40,
        "cil": {"method": "replay", "epochs_per_task": 3, "batch_size": 64},
        "ood": {"method": "ber", "params": {"epochs": 3, "hinge_orientation": "energy_paper"}},
        "seeds": [0],
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    md = (out / "report.md").read_text()
    step_rows = [l for l in md.splitlines()
                 if l.startswith("|") and l.split("|")[1].strip().isdigit()]
    assert len(step_rows) == 5
    assert (out / "report.json").exists() and (out / "report.csv").exists()

    # re-emitting from report.json is supported and idempotent
    before = (out / "report.md").read_bytes()
    assert main(["report", "--in", str(out / "report.json"), "--format", "md"]) == 0
    assert (out / "report.md").read_bytes() == before


def test_run_idempotent_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("report.json", "report.csv", "report.md"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_and_env_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "seeds": [0, 1]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed-override", "5"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["seeds"] == [5]


def test_report_rejects_aggregates_that_disagree_with_records(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--in", str(out / "report.json"), "--format", "csv"]) == 0
    doc = json.loads((out / "report.json").read_text())
    doc["records"][0]["auroc"] = 1.0 - doc["records"][0]["auroc"]
    edited = tmp_path / "edited" / "report.json"
    edited.parent.mkdir()
    edited.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["report", "--in", str(edited), "--format", "md"]) == 2
    assert "aggregates disagree with the records" in capsys.readouterr().err
    assert not (edited.parent / "report.md").exists()


def test_report_with_the_retired_consistency_key_is_rejected(tmp_path, capsys, small_report):
    # reports written before aggregates.consistency_ok was deleted must be re-run
    old = tmp_path / "report.json"
    doc = {**small_report, "aggregates": {**small_report["aggregates"], "consistency_ok": True}}
    old.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["report", "--in", str(old), "--format", "md"]) == 2
    err = capsys.readouterr().err
    assert "aggregates disagree with the records" in err
    assert not (tmp_path / "report.md").exists()
    assert "predates the current format and must be re-run" in err


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """The report.json document of a SMALL_RUN run."""
    tmp = tmp_path_factory.mktemp("small_report")
    (tmp / "cfg.json").write_text(json.dumps(SMALL_RUN))
    assert main(["run", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")]) == 0
    return json.loads((tmp / "out" / "report.json").read_text())


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: [],
        lambda doc: "x",
        lambda doc: {**doc, "config": []},
        # the records check out, but the tables have no ood section to name
        lambda doc: {**doc, "config": {"seeds": doc["config"]["seeds"]}},
    ],
    ids=["list", "string", "config-list", "config-without-ood"],
)
def test_report_malformed_document_is_a_data_error(tmp_path, capsys, small_report, edit):
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(edit(small_report)))
    assert main(["report", "--in", str(bad), "--format", "md"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("CILBENCH-ERROR [data]: malformed report")
    assert not (tmp_path / "report.md").exists()
