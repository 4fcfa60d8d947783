import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

import cilbench.protocol as protocol
from cilbench.cli import main
from cilbench.data import FeatureDataset, load_dataset, save_dataset
from oracles import subset

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


# configs that validate-config passed and run failed; each is a manifest
# config on a gen-synth suite of 8 classes and 3-row OOD sets, with these
# changes, and the exit code and stderr line of both commands
UNRUNNABLE_MANIFESTS = {
    "missing_manifest": (
        {"data": {"manifest": "no/such/manifest.json"}}, None, 2,
        "CILBENCH-ERROR [data]: cannot read manifest no/such/manifest.json: [Errno 2] "
        "No such file or directory: 'no/such/manifest.json'",
    ),
    # 8 classes in steps of 2 is 4 steps; floor(3 / 4) = 0 rows at step 1
    "too_few_ood_rows": (
        {"step_size": 2}, None, 1,
        "CILBENCH-ERROR [config]: an OOD set of 3 rows is empty at step 1 of 4; "
        "each set needs at least 4 rows",
    ),
    "step_size_above_classes": (
        {"step_size": 9}, None, 1,
        "CILBENCH-ERROR [config]: step_size 9 exceeds class count 8",
    ),
    "junk_far2": (
        {"step_size": 2}, "ood_far2.bin", 2,
        "CILBENCH-ERROR [data]: manifest set 'far2' (ood_far2.bin): file too short for header",
    ),
}


@pytest.mark.parametrize("case", UNRUNNABLE_MANIFESTS)
@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_validate_and_run_fail_alike(tmp_path, capsys, command, case):
    over, junk, code, line = UNRUNNABLE_MANIFESTS[case]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], "n_ood_per_set": 3, "seed": 7}))
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "suite")]) == 0
    if junk is not None:
        (tmp_path / "suite" / junk).write_text("junk\n")
    cfg = tmp_path / "cfg.json"
    manifest = {"data": {"manifest": str(tmp_path / "suite" / "manifest.json")}}
    cfg.write_text(json.dumps({**SMALL_RUN, **manifest, **over}))
    capsys.readouterr()
    argv = ["--config", str(cfg)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main([command, *argv]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


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
    # validate-config checks the suite as run does, with one load
    calls.clear()
    assert main(["validate-config", "--config", str(tmp_path / "all.json")]) == 0
    assert calls == [str(manifest)]
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
        ("n_classes", 0),  # only an absent n_classes infers the count
        ("n_classes", -3),
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
        save_dataset(subset(test, keep), manifest.parent / "id_test_less.bin")
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


def _patch(path, offset, fmt, value):
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(raw)


FILE_FAULTS = {
    "missing": (lambda p: p.unlink(), "No such file or directory"),
    "directory": (lambda p: (p.unlink(), p.mkdir()), "Is a directory"),
    "bad_magic": (lambda p: _patch(p, 0, "4s", b"XXXX"), "bad magic, expected OCF1"),
    "truncated": (lambda p: p.write_bytes(p.read_bytes()[:-3]), "payload size mismatch"),
    "nan_feature": (lambda p: _patch(p, 16, "<f", float("nan")), "non-finite feature value"),
    "label_out_of_range": (lambda p: _patch(p, -4, "<i", -1), "labels must lie in"),
}


@pytest.mark.parametrize("fault", FILE_FAULTS)
@pytest.mark.parametrize(
    "name, file", [("id_train", "id_train.bin"), ("id_test", "id_test.bin"), ("far2", "ood_far2.bin")]
)
def test_a_broken_manifest_set_is_a_data_error_that_names_it(tmp_path, capsys, name, file, fault):
    # the OOD sets' errors used to name no set, and a directory exited 3
    manifest = gen_suite(tmp_path)
    breaks, message = FILE_FAULTS[fault]
    breaks(manifest.parent / file)
    assert run_manifest(tmp_path, manifest, "out") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"CILBENCH-ERROR [data]: manifest set {name!r} ({file}): ")
    assert message in err[0]


def test_a_data_error_is_printed_with_one_prefix(tmp_path, capsys):
    # stderr read "CILBENCH-ERROR [data]: data: ..."; a manifest that cannot
    # be read now ends the run before any seed, so no report is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "data": {"manifest": "no/such/manifest.json"}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("CILBENCH-ERROR [data]: cannot read manifest ")


def test_an_unwritable_out_dir_fails_the_run_before_any_training(tmp_path, capsys, monkeypatch):
    # the output directory was first made after step 1 of each seed, so
    # every seed trained and then failed, and the run exited 3 after all
    calls = []
    original = protocol.train_task

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(protocol, "train_task", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "seeds": [0, 1, 2]}))
    out = tmp_path / "a_file"
    out.write_text("")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("CILBENCH-ERROR [runtime]: NotADirectoryError: "), err


def test_gen_synth_write_failure_is_a_runtime_error(tmp_path, capsys):
    # it exited 2, the code of bad input data, where run's writes exit 3
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], "seed": 7}))
    out = tmp_path / "a_file"
    out.write_text("")
    assert main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("CILBENCH-ERROR [runtime]: cannot write suite: "), err


def test_gen_synth_of_a_far_radius_float32_cannot_hold_is_a_data_error(tmp_path, capsys):
    # it wrote inf into ood_far1.bin with a numpy warning and exited 0, and
    # the suite then failed validate-config with "non-finite feature value";
    # a RuntimeWarning fails this test (see pyproject.toml)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], "far_radius": 1e40}))
    out = tmp_path / "suite"
    assert main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"CILBENCH-ERROR [data]: cannot write {out / 'ood_far1.bin'}: a feature value overflows float32"
    ]
    assert not (out / "manifest.json").exists()


def test_a_failed_gen_synth_leaves_the_suite_there_as_it_was(tmp_path, capsys):
    # it wrote id_train.bin, id_test.bin and both near sets in place, then a
    # 16-byte ood_far1.bin, and left the old manifest.json beside them
    example = json.loads((REPO / "configs" / "example_synth_spec.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(example))
    out = tmp_path / "suite"
    assert main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    spec.write_text(json.dumps({**example, "seed": 1, "far_radius": 1e40}))
    capsys.readouterr()
    assert main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"CILBENCH-ERROR [data]: cannot write {out / 'ood_far1.bin'}: a feature value overflows float32"
    ]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["gen-synth", "report", "validate-config"])
def test_an_unexpected_error_is_one_runtime_line(tmp_path, capsys, monkeypatch, command):
    # these printed a traceback; main maps every uncaught error to an exit code
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], "seed": 7}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    report = tmp_path / "report.json"
    report.write_text("{}")
    monkeypatch.setattr("cilbench.cli.write_synth_suite", boom)
    monkeypatch.setattr("cilbench.cli.BenchmarkReport.from_dict", boom)
    monkeypatch.setattr("cilbench.cli.RunConfig.from_json", boom)
    argv = {
        "gen-synth": ["--spec", str(spec), "--out", str(tmp_path / "suite")],
        "report": ["--in", str(report), "--format", "md"],
        "validate-config": ["--config", str(cfg)],
    }[command]
    assert main([command, *argv]) == 3
    assert capsys.readouterr().err.splitlines() == ["CILBENCH-ERROR [runtime]: RuntimeError: boom"]


# (file bytes, a fragment of the error), by fault
JSON_FAULTS = {
    "missing": (None, "No such file or directory"),
    "not_json": (b"{", "Expecting"),
    "not_utf8": (b"\xff{}", "can't decode byte 0xff"),
}


@pytest.mark.parametrize("fault", JSON_FAULTS)
@pytest.mark.parametrize("command", ["validate-config", "run", "gen-synth", "report"])
def test_an_unreadable_json_file_is_one_line_that_names_it(tmp_path, capsys, command, fault):
    content, message = JSON_FAULTS[fault]
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    out = ["--out", str(tmp_path / "out")]
    flag, what, kind, code, extra = {
        "validate-config": ("--config", "config", "config", 1, []),
        "run": ("--config", "config", "config", 1, out),
        "gen-synth": ("--spec", "synth spec", "config", 1, out),
        "report": ("--in", "report", "data", 2, ["--format", "md"]),
    }[command]
    assert main([command, flag, str(path), *extra]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"CILBENCH-ERROR [{kind}]: cannot read {what} {path}: ")
    assert message in err[0]
    assert not (tmp_path / "out").exists()


def test_run_without_out_dir_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    assert main(["run", "--config", str(cfg)]) == 1


def test_gen_synth_bad_spec_exits_1(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_classes": 2}')
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_gen_synth_rejects_a_seed_outside_the_stream_range(tmp_path, capsys, seed):
    # RngStream reads seeds modulo 2^64: seed -1 wrote the suite of seed
    # 2^64 - 1, and seed 2^64 the suite of seed 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], "seed": seed}))
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"CILBENCH-ERROR [config]: bad synth spec: seed must be an integer"
                   f" in [0, 2^64), got {seed}"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("counts", [{"n_near_sets": -1}, {"n_far_sets": -1}])
def test_gen_synth_rejects_negative_ood_set_counts(tmp_path, capsys, counts):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_RUN["data"]["synth"], **counts}))
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
    assert "OOD set counts must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# the byte contract: each row is (name, shipped config, edits, the sha256 of
# the report.json it writes on every platform).  An edit to a section
# updates its keys; any other edit replaces the field.  A declared
# re-baseline changes these constants and lists the old and new values in
# CHANGES.md.
REPORT_PINS = [
    # the two configs as shipped (seeds 0-2)
    ("example_run", "example_run", {},
     "8344787c6415d7b656e0f0130b85c26a357dd09e6395e37c79b5e58a8cccb5bf"),
    ("example_ber_run", "example_ber_run", {},
     "109aab39f13929ca14aea8c89316e6e4ffcaf6661a4a6ebfd4c3cef8a413f532"),
    # neither shipped config distills: distillation and weight align
    ("distill_wa", "example_run", {"cil": {"method": "replay_distill_wa"}, "seeds": [0]},
     "43db712d1d09ef5a52998ba1ddba8363bd1c2ffa3d6027604bdfc2dcc25c4a33"),
    # the shipped configs run in identity order on class-sorted rows; this
    # is the path whose task-by-task row order is not the suite's own
    ("seeded_order", "example_run", {"class_order": "seeded", "seeds": [0]},
     "a3266fbb98f11d349ed808a1ba99096dd2bd4d41311c80abacf79c6e57d263e3"),
    # fine-tuning in seeded class order: the extra head's rows, and the
    # labels it trains on, are the stream's numbering, not the class ids
    ("ber_seeded_order", "example_ber_run", {"class_order": "seeded", "seeds": [0]},
     "178bfbb319f085f92e89060c9c1741fee4377b49350f8d4a4e9a3c2f231f8867"),
    # the one scoring model with a feature map (L2 norm over a temperature)
    # that its scorer backpropagates through
    ("t2fnorm_odin", "example_ber_run",
     {"ood": {"method": "t2fnorm", "score_with": "odin"}, "seeds": [0]},
     "052baf4789e2d6fcb75d5c9589dbb5a47314d8941afcca76589e73b7bb80a87c"),
    # every other OOD method at seed 0: the post-hoc scorers on example_run,
    # the fine-tuners with the rest of example_ber_run's ood section
    ("msp", "example_run", {"ood": {"method": "msp"}, "seeds": [0]},
     "6db75b44ae4fc35ccc041788d2e85f43fbe9e2cb37a4e05bd1b5289614f520bf"),
    ("maxlogit", "example_run", {"ood": {"method": "maxlogit"}, "seeds": [0]},
     "a4d611250ffea55e824d7b4f8a38747f1da7804900d860465c67166d1342d9c3"),
    ("gen", "example_run", {"ood": {"method": "gen"}, "seeds": [0]},
     "c89c1670ead2cf7b99fab0b316d62c133417e6d15637dbf574b9083b08368042"),
    ("odin", "example_run", {"ood": {"method": "odin"}, "seeds": [0]},
     "9c0c3475a462f4c55bffc9a6c95f4956be1d5ef27ddea996a581a0b9320ebab7"),
    ("react", "example_run", {"ood": {"method": "react"}, "seeds": [0]},
     "5352c5600afafb41d9fddef49881bee8b6c042fc66869ee9fa9cd75ddca3694e"),
    ("klm", "example_run", {"ood": {"method": "klm"}, "seeds": [0]},
     "f816c379ac3e6b93ffdb5e1942e2fb61a93d6159a8e6a39c18ccfd0e7f98a3af"),
    ("nnguide", "example_run", {"ood": {"method": "nnguide"}, "seeds": [0]},
     "6fecbcadceb509b9d10ff05f3cc4e3f2367a33dd3daa72b6198a3e94146bb602"),
    ("relation_simplified", "example_run", {"ood": {"method": "relation_simplified"}, "seeds": [0]},
     "22a5940dda4c1266f192390eec20c6046ba926933db3330f6b4ae4825e9b0a9b"),
    ("plain", "example_ber_run", {"ood": {"method": "plain"}, "seeds": [0]},
     "10ae6de95de18e1b5eda1d644c875a585ecdbda7d24d543a9d3dcb7143a8946a"),
    ("logitnorm", "example_ber_run", {"ood": {"method": "logitnorm"}, "seeds": [0]},
     "bbc4c6e0561c4f3a3a7d6662981feb58ac24190c69d87156f8b5d04d47982e41"),
    ("t2fnorm", "example_ber_run", {"ood": {"method": "t2fnorm"}, "seeds": [0]},
     "353de817c97dc68d0eae38786819c4f4a0a3cf3f83e0d074fc5930ae71d6bbc8"),
]
# the numpy and BLAS every report pin in this file was recorded under: a
# digest that differs under another numpy may be that numpy's, not the engine's
PINS_RECORDED_UNDER = "numpy 2.4.6, scipy-openblas 0.3.31"
PIN_MESSAGE = f"pins recorded under {PINS_RECORDED_UNDER}; this run has numpy {np.__version__}"


# The same contract for data.manifest runs at seed 0 on the suite gen-synth
# writes from configs/example_synth_spec.json: rows read from float32 files,
# a path no row above takes, and herding's replay picks on them.  The
# manifest path is relative to the working directory, so the path the
# report echoes is the same in every tmp_path.
MANIFEST_PINS = [
    ("energy", "example_run", {},
     "1a94b3883ab5fa49d0017243db97ca21693bd4a096e69684d275b17c77187bdd"),
    ("seeded_order", "example_run", {"class_order": "seeded"},
     "9217510c7e9431bc0c0455da9afe533b7839647ae22b81b83e81a654a2bfcad0"),
    ("nnguide", "example_run", {"ood": {"method": "nnguide"}},
     "a71505cadad7b783d976c47dd856421d4c4b718760dc8b6eed73c539c905b1e2"),
    # the other fitted scorers: the relation bank's MSP, and the two fits
    # that widen their rows whole
    ("relation_simplified", "example_run", {"ood": {"method": "relation_simplified"}},
     "7a4aed027292e52cad9a36e26f7f369e6a2895ab674eda86794b2b7b65ec2696"),
    ("react", "example_run", {"ood": {"method": "react"}},
     "38e0d371754ae0f6eb90b5ee29d183914e8a5c7552250751f4a14c76f33c3974"),
    ("klm", "example_run", {"ood": {"method": "klm"}},
     "bf2e5d6cee9bc7c8bc0dc071a8fdef3787003fad6eac6efe1a28ef79b92a9895"),
    ("odin", "example_run", {"ood": {"method": "odin"}},
     "bea9779ec7798050eefeba8cc617151abd8558015fb2ae510b5e1a63a505b516"),
    ("t2fnorm_odin", "example_ber_run", {"ood": {"method": "t2fnorm", "score_with": "odin"}},
     "442d2e83d9edb51467181f7ec9841b58f4933afcb3dae1623a07f92d130afe14"),
    ("ber_distill_wa", "example_ber_run", {"cil": {"method": "replay_distill_wa"}},
     "da0b919c3474381b9acd76e27466cfd8918b01642f4851c698128a3afb7fda9f"),
]


# SHA-256 of every file gen-synth writes for configs/example_synth_spec.json,
# recorded while generate drew every suite in float64 and save_dataset cast
# it block by block: the float32 suite gen-synth now draws must match them
GEN_SYNTH_SHA256 = {
    "id_test.bin": "93855b750e7281e658e05227d26675c31d5ebf4e259c9473724a88653eb8c8ae",
    "id_train.bin": "47fd3ea192990679212272483b4c514eb4e90bed62b0f6e4b6d51f5069c5b84f",
    "manifest.json": "06b33d83e11d55103635dcd7dc309963391af917bc53037b04d9da32ca35ca48",
    "ood_far1.bin": "0955541d3f1ff308492cad94752a8344200404d8d8fa50eda17ad8848b1a864a",
    "ood_far2.bin": "9aae6795591b8e1a394e93b082ee8786a208398ac5112d2d5c476d2e2c770c07",
    "ood_near1.bin": "321601705a1f9c3128f74a75e4cb59cfd592d4e57020ad617949986216a2eb23",
    "ood_near2.bin": "ae1782882bb3110fca20577a1534afb585c02f7b4fbbf95c79fa4a61d82744be",
}


def test_gen_synth_writes_the_recorded_suite_bytes(tmp_path):
    spec = REPO / "configs" / "example_synth_spec.json"
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "suite")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "suite").iterdir()}
    assert written == GEN_SYNTH_SHA256, PIN_MESSAGE


def edited_config(config: str, edits: dict) -> dict:
    """configs/<config>.json with ``edits`` applied as the pin tables say."""
    doc = json.loads((REPO / "configs" / f"{config}.json").read_text())
    for key, value in edits.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    return doc


def report_digest(tmp_path, doc: dict) -> str:
    """SHA-256 of the report.json that ``cilbench run`` of ``doc`` writes."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    return hashlib.sha256((tmp_path / "run" / "report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "config, edits, sha256", [pytest.param(*row[1:], id=row[0]) for row in REPORT_PINS]
)
def test_shipped_config_writes_the_recorded_report_bytes(tmp_path, config, edits, sha256):
    assert report_digest(tmp_path, edited_config(config, edits)) == sha256, PIN_MESSAGE


@pytest.mark.parametrize(
    "config, edits, sha256", [pytest.param(*row[1:], id=row[0]) for row in MANIFEST_PINS]
)
def test_manifest_config_writes_the_recorded_report_bytes(
    tmp_path, monkeypatch, config, edits, sha256
):
    spec = REPO / "configs" / "example_synth_spec.json"
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "suite")]) == 0
    monkeypatch.chdir(tmp_path)
    doc = {**edited_config(config, edits), "data": {"manifest": "suite/manifest.json"}, "seeds": [0]}
    assert report_digest(tmp_path, doc) == sha256, PIN_MESSAGE


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

    # re-emitting from report.json is supported and idempotent; csv reads
    # its columns from records whose keys come back from JSON sorted
    for fmt, name in (("md", "report.md"), ("csv", "report.csv")):
        before = (out / name).read_bytes()
        assert main(["report", "--in", str(out / "report.json"), "--format", fmt]) == 0
        assert (out / name).read_bytes() == before


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
