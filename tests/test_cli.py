import base64
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from needleroll import cli, dataset, evaluate, schema
from needleroll.cli import main
from needleroll.controller import CONTROLLER
from needleroll.dataset import (
    DATASET_SCHEMA_VERSION,
    DEFAULT_EPISODES,
    ESTIMATOR_COLUMNS,
    MANIFEST_SCHEMA_VERSION,
    STEP_COLUMNS,
    load_manifest,
    record_to_line,
    split_labels,
)
from needleroll.evaluate import DEFAULT_TRIALS, ESTIMATOR_NAMES, run_trial
from needleroll.lstm import init_model, param_shapes, save_model
from needleroll.plant import MEDIUM_PRESETS, WORKSPACE
from needleroll.config import (
    load_config_file,
    resolve_config,
    write_resolved_config,
)


# ------------------------------------------------------------- configuration

def test_resolve_precedence(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"seed": 5, "medium": "brain", "n": 9}))
    config = resolve_config(load_config_file(cfg_file),
                            {"medium": "lung", "seed": None})
    assert config.seed == 5  # file wins over unset flag
    assert config.medium == "lung"  # explicit flag wins over file
    assert config.n == 9
    assert config.jobs == 1  # untouched default


def test_config_file_rejects_unknown_keys(tmp_path):
    """z_max is no setting: the feature scale comes from the dataset."""
    cfg_file = tmp_path / "c.json"
    for doc in ({"sneed": 5}, {"z_max": 75.0}):
        cfg_file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown keys"):
            load_config_file(cfg_file)


@pytest.mark.parametrize("version", [99, 0, True, "1", None])
def test_cli_config_file_of_another_schema_is_usage_error(tmp_path, capsys,
                                                          version):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": version}))
    assert main(["generate", "--n", "2", "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unsupported config schema" in err
    assert not out.exists()


def test_config_file_rejects_bad_json(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text("{nope")
    with pytest.raises(ValueError):
        load_config_file(cfg_file)


def test_config_validation():
    with pytest.raises(ValueError):
        resolve_config(None, {"medium": "granite"})
    with pytest.raises(ValueError):
        resolve_config(None, {"estimators": ("lstm", "psychic")})
    with pytest.raises(ValueError):
        resolve_config(None, {"jobs": 0})
    with pytest.raises(ValueError):
        resolve_config(None, {"target": (1.0, 2.0)})


def test_config_builds_components():
    config = resolve_config(None, {"medium": "lung", "rigid": True})
    medium = config.make_medium()
    assert medium.name == "lung" and medium.rigid
    tc = config.make_train_config()
    assert tc.hidden_size == 30


def test_resolved_config_roundtrip(tmp_path):
    config = resolve_config(None, {"seed": 9, "estimators": ("truth", "ekf")})
    write_resolved_config(config, tmp_path)
    doc = json.loads((tmp_path / "config.json").read_text())
    assert doc["schema_version"] == 1
    again = resolve_config(load_config_file(tmp_path / "config.json"), {})
    assert again == config


# --------------------------------------------------------------- CLI surface

def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_cli_unknown_flag_is_usage_error(capsys):
    assert main(["generate", "--frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_unknown_subcommand_is_usage_error():
    assert main(["transmogrify"]) == 1


def test_cli_missing_out_is_usage_error(capsys):
    assert main(["generate", "--n", "1"]) == 1
    assert "--out" in capsys.readouterr().err


def test_cli_generate_and_retrain_roundtrip(tmp_path, capsys):
    ds = tmp_path / "ds"
    code = main(["generate", "--n", "4", "--seed", "3", "--out", str(ds)])
    assert code == 0
    out = capsys.readouterr().out
    assert "train 3 / val 1" in out
    assert (ds / "episodes.jsonl").exists()
    assert (ds / "manifest.json").exists()
    assert (ds / "config.json").exists()

    run = tmp_path / "run"
    code = main(["train", "--dataset", str(ds), "--out", str(run),
                 "--epochs", "2", "--seed", "1"])
    assert code == 0
    out, err = capsys.readouterr()
    assert err.startswith("epoch 2/2: train loss ")  # progress, not stdout
    assert (run / "model.json").exists()
    assert (run / "training_log.csv").exists()
    log_rows = (run / "training_log.csv").read_text().strip().splitlines()
    assert len(log_rows) == 3  # header + 2 epochs
    last_val = float(log_rows[-1].split(",")[2])
    assert f"{last_val:.4f}" in out  # printed RMSE matches the log


def test_cli_generate_deterministic_across_jobs(tmp_path):
    """Six slots on two and three workers finish out of order; the
    streamed files still hold the one-process bytes."""
    argv = ["generate", "--n", "6", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "jobs1")]) == 0
    for jobs in (2, 3):
        out = tmp_path / f"jobs{jobs}"
        assert main(argv + ["--out", str(out), "--jobs", str(jobs)]) == 0
        for name in ("episodes.jsonl", "manifest.json"):
            assert (out / name).read_bytes() == \
                (tmp_path / "jobs1" / name).read_bytes()


def test_cli_generate_stall_is_runtime_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dataset, "DEPTH_CAP", 20.0)
    code = main(["generate", "--n", "2", "--out", str(tmp_path / "ds")])
    assert code == 2
    assert "failed" in capsys.readouterr().err


def test_cli_generate_stall_under_jobs_shuts_the_pool_down(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    """A slot that cannot arrive fails a pooled run the way it fails a
    one-process run, and leaves no worker behind. It writes no file, and a
    dataset already in its directory stays byte-identical and trainable.
    The forked workers inherit the lowered depth cap."""
    kept = tmp_path / "kept"
    args = ["generate", "--n", "3", "--seed", "5", "--out", str(kept)]
    assert main(args) == 0
    before = {f.name: f.read_bytes() for f in kept.iterdir()}

    monkeypatch.setattr(dataset, "DEPTH_CAP", 20.0)
    ds = tmp_path / "ds"
    code = main(["generate", "--n", "4", "--jobs", "2", "--out", str(ds)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(
        "failed: episode slot "), err
    assert list(ds.iterdir()) == []
    assert multiprocessing.active_children() == []

    assert main([*args, "--jobs", "2"]) == 2
    assert {f.name: f.read_bytes() for f in kept.iterdir()} == before
    assert multiprocessing.active_children() == []
    assert main(["train", "--dataset", str(kept), "--epochs", "1",
                 "--out", str(tmp_path / "run")]) == 0


_collect_episode = dataset._collect_episode
_run_trial_task = evaluate._run_trial_task


def _collect_episode_or_die(args):
    """generate's pool task, but the worker given slot 1 dies at once, as
    a killed or crashed worker would. Module-level, so the pool pickles it
    by name, and forked workers find it patched in."""
    if args[0] == 1:
        os._exit(3)
    return _collect_episode(args)


def _run_trial_task_or_die(args):
    """evaluate's pool task, but the worker given trial 1 dies at once."""
    if args[-1] == 1:
        os._exit(3)
    return _run_trial_task(args)


@pytest.mark.parametrize("owner, name, task, argv", [
    (dataset, "_collect_episode", _collect_episode_or_die,
     ["generate", "--n", "3"]),
    (evaluate, "_run_trial_task", _run_trial_task_or_die,
     ["evaluate", "--estimators", "truth", "--n", "3"]),
], ids=["generate", "evaluate"])
def test_cli_dead_pool_worker_is_runtime_error(tmp_path, capsys, monkeypatch,
                                               owner, name, task, argv):
    """A pool worker that dies mid-run fails the run with exit 2 and one
    failed: line, not a traceback, and leaves no line file and no
    temporary file behind, nor any worker."""
    monkeypatch.setattr(owner, name, task)
    out = tmp_path / "out"
    code = main([*argv, "--seed", "3", "--jobs", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("failed: "), err
    assert "Traceback" not in err
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert multiprocessing.active_children() == []


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers
    and maps in this process, so no worker is forked."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self, cancel_futures=False):
        pass


def test_cli_pool_forks_no_more_workers_than_items(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert list(cli._mapper(4)(abs, [-1, -2])) == [1, 2]
    assert main(["evaluate", "--estimators", "truth", "--rigid", "--n", "1",
                 "--jobs", "3", "--out", str(tmp_path / "one")]) == 0
    assert main(["evaluate", "--estimators", "truth", "--rigid", "--n", "5",
                 "--jobs", "3", "--out", str(tmp_path / "five")]) == 0
    assert main(["generate", "--n", "2", "--jobs", "3",
                 "--out", str(tmp_path / "ds")]) == 0
    assert RecordingPool.sizes == [2, 1, 3, 2]


def test_cli_evaluate_repeated_estimator_fails_before_writing(tmp_path,
                                                              capsys):
    """A repeated name would rerun its trials under the same seeds and
    count them twice in the report."""
    out = tmp_path / "ev"
    assert main(["evaluate", "--estimators", "ekf,ekf", "--rigid", "--n", "2",
                 "--seed", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'ekf' is listed twice" in err
    assert not out.exists()


def test_cli_negative_seed_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "neg"
    assert main(["generate", "--n", "2", "--seed", "-1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be non-negative" in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["0,0,-5", "3,4,0", "0,0,0.2",
                                    "0.1,-0.1,0.2", "nan,0,40"])
def test_cli_steer_target_behind_or_at_the_entry_fails_before_writing(
        tmp_path, capsys, target):
    """The controller would stop at once on these: behind or on the entry
    plane, or within the arrival tolerance (0.25 mm) of the entry point.
    A NaN coordinate is named as such, not as a target behind the entry."""
    out = tmp_path / "eval"
    assert main(["evaluate", "--estimators", "truth", "--n", "1",
                 "--target", target, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    expect = ("target coordinates must be finite" if "nan" in target
              else "target must lie ahead")
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert expect in err
    assert not out.exists()


def test_config_accepts_a_target_just_past_the_arrival_tolerance():
    config = resolve_config(None, {"target": (0.0, 0.2, 0.2)})
    assert config.target == (0.0, 0.2, 0.2)


def test_cli_generate_one_episode_fails_before_collecting(tmp_path, capsys):
    """One episode cannot be split into train and validation sets; the
    count is rejected before any episode is collected or written."""
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "1", "--seed", "3", "--out", str(ds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least two episodes" in err
    assert not ds.exists()


def test_cli_generate_writes_the_manifest_once(tmp_path, monkeypatch):
    """generate saves the manifest once, after the last episode line: no
    manifest that lists an episode its file does not hold is ever on
    disk."""
    saved = []
    save = dataset.save_json

    def recording_save(path, obj, version):
        held = (path.parent / "episodes.jsonl").read_text().count("\n")
        saved.append((path.name, obj, held))
        save(path, obj, version)

    monkeypatch.setattr(dataset, "save_json", recording_save)
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "3", "--seed", "3", "--out", str(ds)]) == 0
    assert [(name, held) for name, _, held in saved] == [("manifest.json", 3)]
    assert load_manifest(ds) == saved[0][1]
    assert sorted(saved[0][1].labels) == ["train", "train", "val"]


def test_config_keeps_stable_torsion_settings():
    """Every medium a config can name resolves, and its explicit-Euler slip
    step contracts at the controller's fixed loop rate (dt*k/c < 1); a
    rigid medium has no slip step to destabilize."""
    dt = 1.0 / CONTROLLER.rate
    for name in MEDIUM_PRESETS:
        for rigid in (False, True):
            medium = resolve_config(None, {"medium": name,
                                         "rigid": rigid}).make_medium()
            assert medium.name == name and medium.rigid is rigid
            assert dt * medium.torsion_stiffness / medium.torsion_damping < 1.0


def test_cli_train_takes_z_max_from_the_dataset(tmp_path):
    """The feature scale is the dataset's z_max, WORKSPACE.depth_max, the
    deepest target a dataset holds: the model carries it, and neither the
    manifest nor a config stores a copy."""
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "2", "--seed", "3", "--out", str(ds)]) == 0
    doc = json.loads((ds / "manifest.json").read_text())
    assert "z_max" not in doc and "workspace" not in doc["generation"]
    assert load_manifest(ds).z_max == WORKSPACE.depth_max == 75.0
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(ds), "--out", str(run),
                 "--epochs", "1"]) == 0
    assert json.loads((run / "model.json").read_text())["z_max"] == 75.0
    assert "z_max" not in json.loads((run / "config.json").read_text())


def test_config_int_for_a_float_setting_keeps_the_dataset_identity(tmp_path):
    """A JSON int given for a target coordinate resolves to the float: the
    same config.json, config hash and manifest as the float spelling."""
    ds = tmp_path / "ds"
    written = []
    for target in ([3, 4, 60], [3.0, 4.0, 60.0]):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": target}))
        shutil.rmtree(ds, ignore_errors=True)
        assert main(["generate", "--n", "2", "--seed", "3", "--config",
                     str(cfg), "--out", str(ds)]) == 0
        written.append([(ds / name).read_bytes() for name in
                        ("config.json", "manifest.json", "episodes.jsonl")])
    assert written[0] == written[1]
    doc = json.loads(written[0][0])
    assert all(type(v) is float for v in doc["target"])


def _int_stiffness_line(tmp_path):
    """A trial line whose medium.torsion_stiffness is the JSON int 2."""
    doc = json.loads(record_to_line(run_trial(
        "truth", MEDIUM_PRESETS["gelatin"], (3.0, 4.0, 60.0), seed=2)))
    doc["medium"]["torsion_stiffness"] = 2
    return dataset.record_from_line(json.dumps(doc)).medium.torsion_stiffness


def _int_z_max_model(tmp_path):
    """A model file whose z_max is the JSON int 75."""
    path = tmp_path / "model.json"
    save_model(init_model(75.0, hidden_size=4, seed=1), path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), z_max=75)))
    return cli.load_model(path).z_max


@pytest.mark.parametrize("read, expect", [
    (_int_stiffness_line, 2.0),
    (_int_z_max_model, 75.0),
], ids=["line_medium", "model_z_max"])
def test_a_json_int_in_a_float_field_reads_as_a_float(tmp_path, read, expect):
    """Every reader builds a float field from a JSON int as the float, in
    a line's medium as in a model's z_max (and a config's target, above)."""
    value = read(tmp_path)
    assert value == expect and type(value) is float


def test_cli_rerun_from_recorded_config_is_byte_identical(tmp_path):
    """A run directory's config.json reproduces its artifacts: generate
    and train again from it, into another directory, write the same
    bytes."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["generate", "--n", "3", "--seed", "4",
                 "--out", str(first / "ds")]) == 0
    assert main(["train", "--dataset", str(first / "ds"), "--epochs", "2",
                 "--out", str(first / "run")]) == 0
    for stage in ("ds", "run"):
        command = "generate" if stage == "ds" else "train"
        assert main([command, "--config", str(first / stage / "config.json"),
                     "--out", str(again / stage)]) == 0
    for name in ("ds/episodes.jsonl", "ds/manifest.json", "run/model.json",
                 "run/training_log.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "0", "epochs must be at least 1"),
])
def test_cli_train_bad_option_fails_before_writing(tmp_path, capsys, flag,
                                                   value, message):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "2", "--seed", "3", "--out", str(ds)]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    code = main(["train", "--dataset", str(ds), "--out", str(run),
                 flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not run.exists()


def _floats(text):
    """A line's column as float64 values, by the README's recipe."""
    return np.frombuffer(base64.b64decode(text), "<f8")


def _column(values):
    """values as a line's column text."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def _train_argv(ds, tmp_path):
    return ["train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
            "--epochs", "1"]


def test_cli_train_on_truncated_dataset_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "3", "--seed", "3", "--out", str(ds)]) == 0
    episodes = ds / "episodes.jsonl"
    lines = episodes.read_text().splitlines(keepends=True)
    episodes.write_text("".join(lines[:2]))  # one whole episode lost
    capsys.readouterr()
    assert main(_train_argv(ds, tmp_path)) == 2
    assert "manifest lists 3" in capsys.readouterr().err


def test_cli_train_on_corrupt_dataset_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "3", "--seed", "3", "--out", str(ds)]) == 0
    episodes = ds / "episodes.jsonl"
    lines = episodes.read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])

    def edited(**changes):
        return json.dumps(dict(doc, **changes)) + "\n"

    no_heading = {k: v for k, v in doc.items() if k != "heading"}
    nan_position = _floats(doc["position"]).copy()
    nan_position[1] = math.nan
    cases = [
        ("not valid JSON", lines[1][:len(lines[1]) // 2] + "\n"),  # cut
        ("missing field 'heading'", json.dumps(no_heading) + "\n"),
        ("unknown keys ['viscosity']",
         edited(medium=dict(doc["medium"], viscosity=1.0))),
        ("unsupported episode schema",
         edited(schema_version=DATASET_SCHEMA_VERSION + 1)),
        ("roll_true must match",
         edited(roll_true=_column(_floats(doc["roll_true"])[:-1]))),
        ("position must be finite", edited(position=_column(nan_position))),
        ("final error must be finite", edited(final_error=math.inf)),
        # json writes and reads NaN and Infinity in the parameter objects
        ("curvature must be finite and positive, not nan",
         edited(medium=dict(doc["medium"], curvature=math.nan,
                            position_noise=math.inf))),
        ("position_noise must be finite and nonnegative, not inf",
         edited(medium=dict(doc["medium"], position_noise=math.inf))),
        ("deadband must be finite and nonnegative, not nan",
         edited(controller=dict(doc["controller"], deadband=math.nan))),
    ]
    for expect, line in cases:
        episodes.write_text("".join([lines[0], line, lines[2]]))
        capsys.readouterr()
        assert main(_train_argv(ds, tmp_path)) == 2, expect
        err = capsys.readouterr().err
        assert "line 2" in err and expect in err


def _to_schema_2(doc):
    """An episode or trial line's object as schema 2 wrote it: each column a
    list of numbers."""
    for name in (*STEP_COLUMNS, *ESTIMATOR_COLUMNS):
        if name in doc:
            doc[name] = _floats(doc[name]).tolist()
    doc["schema_version"] = 2


# wrong-typed or wrongly encoded edits of an episode or trial line, each
# with the message that names its key
LINE_EDITS = {
    "final_error_string": (
        lambda d: d.update(final_error=repr(d["final_error"])),
        "'final_error' must be float"),
    "episode_id_float": (lambda d: d.update(episode_id=0.7),
                         "'episode_id' must be int"),
    "episode_id_string": (lambda d: d.update(episode_id="0"),
                          "'episode_id' must be int"),
    "episode_id_bool": (lambda d: d.update(episode_id=True),
                        "'episode_id' must be int"),
    "seed_float": (lambda d: d["seed"].__setitem__(0, 3.5),
                   "'seed'[0] must be int"),
    "seed_string": (lambda d: d["seed"].__setitem__(0, "3"),
                    "'seed'[0] must be int"),
    "rigid_string": (lambda d: d["medium"].update(rigid="no"),
                     "'medium'['rigid'] must be bool"),
    "medium_name_number": (lambda d: d["medium"].update(name=5),
                           "'medium'['name'] must be str"),
    "base_angle_string": (lambda d: d.update(base_angle="0.1"),
                          "'base_angle' is not strict base64"),
    "base_angle_bool": (lambda d: d.update(base_angle=True),
                        "'base_angle' must be a base64 string"),
    "base_angle_numbers": (
        lambda d: d.update(base_angle=_floats(d["base_angle"]).tolist()),
        "'base_angle' must be a base64 string"),
    "roll_true_non_alphabet": (
        lambda d: d.update(roll_true="*" + d["roll_true"][1:]),
        "'roll_true' is not strict base64 of float64 bytes"),
    # a heading row's 24 bytes need no padding; one character less does
    "heading_bad_padding": (
        lambda d: d.update(heading=d["heading"][:-1]),
        "'heading' is not strict base64 of float64 bytes (Incorrect padding)"),
    "rotation_speed_partial_float": (
        lambda d: d.update(rotation_speed=base64.b64encode(
            base64.b64decode(d["rotation_speed"])[:-3]).decode()),
        "'rotation_speed' is not strict base64 of float64 bytes (buffer size "
        "must be a multiple of element size)"),
    "schema_2": (_to_schema_2, "unsupported episode schema 2"),
    "heading_not_unit": (
        lambda d: d.update(heading=_column(_floats(d["heading"]) * 1.001)),
        "heading rows must be unit vectors"),
    "target_strings": (lambda d: d.update(target=list(map(str, d["target"]))),
                       "'target'[0] must be float, got \""),
    "deadband_bool": (lambda d: d["controller"].update(deadband=True),
                      "'controller'['deadband'] must be float"),
    "unknown_key": (lambda d: d.update(viscosity=1.0),
                    "unknown keys ['viscosity']"),
}


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """A three-episode dataset and a two-trial evaluate directory."""
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["generate", "--n", "3", "--seed", "3",
                 "--out", str(root / "ds")]) == 0
    assert main(["evaluate", "--estimators", "truth,ekf", "--rigid",
                 "--n", "1", "--seed", "6", "--out", str(root / "eval")]) == 0
    return root


def _edit_line_2(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])
    edit(doc)
    lines[1] = json.dumps(doc) + "\n"
    path.write_text("".join(lines))


def _copied_line_file(pipeline_files, tmp_path, command):
    """(path, argv): a copy of the dataset's episodes file and the train
    command reading it, or of the evaluate trial file and report."""
    if command == "train":
        shutil.copytree(pipeline_files / "ds", tmp_path / "ds")
        return (tmp_path / "ds" / "episodes.jsonl",
                _train_argv(tmp_path / "ds", tmp_path))
    shutil.copytree(pipeline_files / "eval", tmp_path / "eval")
    return (tmp_path / "eval" / "trials" / "episodes.jsonl",
            ["report", "--out", str(tmp_path / "eval")])


def _tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("edit", LINE_EDITS)
@pytest.mark.parametrize("command", ["train", "report"])
def test_cli_wrong_typed_line_is_data_error(pipeline_files, tmp_path, capsys,
                                            command, edit):
    """train reads episode lines and report trial lines through one type
    check: a wrong-typed value fails it, naming the file, line and key."""
    damage, expect = LINE_EDITS[edit]
    path, argv = _copied_line_file(pipeline_files, tmp_path, command)
    _edit_line_2(path, damage)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*.*")}
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and f"{path}: line 2 " in err
    assert expect in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*.*")} == before


@pytest.mark.parametrize("command", ["train", "report"])
def test_cli_non_utf8_line_is_data_error(pipeline_files, tmp_path, capsys,
                                         command):
    """A byte that is not UTF-8 fails its line like any other bad line."""
    path, argv = _copied_line_file(pipeline_files, tmp_path, command)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:100] + b"\xff" + lines[1][101:]
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and f"{path}: line 2 " in err
    assert "utf-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "report"])
def test_cli_truncated_last_line_is_data_error(pipeline_files, tmp_path,
                                               capsys, command):
    """A complete last line that lost its newline fails in either file:
    every line ends in one, so a line without it may have been cut."""
    path, argv = _copied_line_file(pipeline_files, tmp_path, command)
    text = path.read_bytes()
    path.write_bytes(text[:-1])
    last = text.count(b"\n")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:")
    assert f"{path}: line {last} is truncated" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["train", "report"])
def test_cli_deeply_nested_line_is_data_error(pipeline_files, tmp_path,
                                              capsys, command):
    """A line nested deeper than json.loads recurses fails its line like
    any other bad line, not as a RecursionError traceback."""
    path, argv = _copied_line_file(pipeline_files, tmp_path, command)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "[" * 100_000 + "\n"
    path.write_text("".join(lines))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and f"{path}: line 2 " in err
    assert "nested too deeply" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("what", ["train", "report", "model"])
def test_replacing_failing_partway_keeps_the_old_file(pipeline_files,
                                                      tmp_path, what):
    """A write through schema.replacing that raises partway leaves the file
    it replaces as it was, and no temporary file: the dataset's or the
    trial file's after one line, and model.json when save_model meets
    metadata that json cannot encode."""
    if what == "model":
        path = tmp_path / "model.json"
        save_model(init_model(75.0, hidden_size=4, seed=1), path)
    else:
        path, _ = _copied_line_file(pipeline_files, tmp_path, what)
    before = _tree(tmp_path)

    if what == "model":
        with pytest.raises(TypeError):
            save_model(init_model(75.0, hidden_size=4, seed=2,
                                  metadata={"x": object()}), path)
    else:
        with pytest.raises(RuntimeError, match="after one line"):
            with schema.replacing(path) as fh:
                fh.write("{}\n")
                raise RuntimeError("stopped after one line")
    assert _tree(tmp_path) == before
    assert not path.with_name(path.name + ".tmp").exists()


# the labels generate gives the 10-episode seed-42 dataset
LABELS = split_labels(10, 42)
TRAIN = [k for k, label in enumerate(LABELS) if label == "train"]
VAL = [k for k, label in enumerate(LABELS) if label == "val"]


def _label(doc, entries, label):
    for k in entries:
        doc["episodes"][k]["split"] = label


def _unknown_split(k):
    return f"'episodes'[{k}]: unknown keys ['split']"


@pytest.mark.parametrize("edit, names", [
    (lambda d: _label(d, range(10), "val"), _unknown_split(0)),
    (lambda d: _label(d, range(10), "train"), _unknown_split(0)),
    (lambda d: _label(d, range(10), None), _unknown_split(0)),
    (lambda d: _label(d, TRAIN[:1], "val"), _unknown_split(TRAIN[0])),
    (lambda d: (_label(d, TRAIN[:7], None), _label(d, TRAIN[7:8], "val")),
     _unknown_split(TRAIN[0])),
    (lambda d: (_label(d, TRAIN[:1], "val"), _label(d, VAL[:1], "train")),
     _unknown_split(min(TRAIN[0], VAL[0]))),
    (lambda d: d["generation"].pop("seed"),
     "'generation': missing field 'seed'"),
    (lambda d: d["generation"].update(seed="42"),
     "'generation'['seed'] must be int, got \"42\""),
    (lambda d: d["generation"].update(n=11),
     "'generation': unknown keys ['n']"),
], ids=["all_val", "all_train", "all_null", "one_train_to_val",
        "seven_train_null_one_to_val", "swapped_pair", "no_seed",
        "string_seed", "n_not_the_entry_count"])
def test_cli_train_on_a_relabelled_manifest_is_data_error(tmp_path, capsys,
                                                          edit, names):
    """A manifest stores no split label, as split_labels(n, seed) derives
    them from generation: a hand-written label is an unknown key, named
    by its entry, and a missing or mistyped seed or a stored count fails
    naming generation. Nothing is written."""
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "10", "--seed", "42",
                 "--out", str(ds)]) == 0
    path = ds / "manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(_train_argv(ds, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"failed: {path}: ") and names in err, err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("damage", ["episodes_string",
                                    "episode_missing_key", "z_max_string",
                                    "schema_version", "z_max_nan",
                                    "z_max_infinity", "z_max_negative",
                                    "duplicate_episode_id", "unknown_split",
                                    "line_past_the_end", "swapped_lines"])
def test_cli_train_on_malformed_manifest_is_data_error(tmp_path, capsys, damage):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "2", "--seed", "3", "--out", str(ds)]) == 0
    path = ds / "manifest.json"
    doc = json.loads(path.read_text())
    if damage == "episodes_string":
        doc["episodes"] = "episodes.jsonl"
    elif damage == "episode_missing_key":
        del doc["episodes"][1]["steps"]
    elif damage == "schema_version":
        doc["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
    elif damage.startswith("z_max"):  # z_max is WORKSPACE's, never stored
        doc["generation"]["workspace"] = dict(depth_max={
            "z_max_string": "75", "z_max_nan": math.nan,
            "z_max_infinity": math.inf, "z_max_negative": -1.0}[damage])
    elif damage == "duplicate_episode_id":
        doc["episodes"][1]["episode_id"] = doc["episodes"][0]["episode_id"]
    elif damage == "line_past_the_end":  # else its episode is skipped
        doc["episodes"][1]["line"] = 7
    elif damage == "swapped_lines":  # entry k must describe line k
        doc["episodes"][0]["line"], doc["episodes"][1]["line"] = 1, 0
    else:  # a stored label, of any value, is an unknown key
        doc["episodes"][0]["split"] = "test"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(_train_argv(ds, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and "manifest.json" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# every key schema 3, 4 or 5 stored and schema 6 derives or holds as a
# constant, with a value it held
REMOVED_KEYS = {
    "z_max": lambda d: d.update(z_max=76.0),
    "config_hash": lambda d: d.update(config_hash="0" * 64),
    "episodes_file": lambda d: d.update(episodes_file="episodes.jsonl"),
    "entry_split": lambda d: d["episodes"][1].update(split="train"),
    "entry_seed": lambda d: d["episodes"][1].update(seed=[3, 1, 0]),
    "entry_medium_name": lambda d: d["episodes"][1].update(
        medium_name="gelatin"),
    "entry_target_depth": lambda d: d["episodes"][1].update(
        target_depth=50.0),
    "generation_schema_version": lambda d: d["generation"].update(
        schema_version=3),
    "generation_depth_cap": lambda d: d["generation"].update(depth_cap=80.0),
    "generation_workspace": lambda d: d["generation"].update(
        workspace=dataclasses.asdict(WORKSPACE)),
    "generation_controller": lambda d: d["generation"].update(
        controller=dataclasses.asdict(CONTROLLER)),
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_cli_train_on_a_removed_manifest_key_is_data_error(
        pipeline_files, tmp_path, capsys, key):
    """A schema-6 manifest that holds a copy an earlier schema stored fails
    as an unknown key, named with its entry or generation, and nothing is
    written."""
    _, argv = _copied_line_file(pipeline_files, tmp_path, "train")
    path = tmp_path / "ds" / "manifest.json"
    doc = json.loads(path.read_text())
    REMOVED_KEYS[key](doc)
    path.write_text(json.dumps(doc))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    scope, _, name = key.partition("_")
    where = {"entry": "'episodes'[1]: ",
             "generation": "'generation': "}.get(scope, "")
    name = name if where else key
    err = capsys.readouterr().err
    assert err == f"failed: {path}: {where}unknown keys [{name!r}]\n", err
    assert _tree(tmp_path) == before


def _workspace_copy(**edits):
    """The workspace copy a schema-5 generation held, edited."""
    return lambda d, line: d["generation"].update(
        workspace=dict(dataclasses.asdict(WORKSPACE), **edits))


@pytest.mark.parametrize("edit, file, names", [
    (lambda d, line: d["generation"]["medium"].update(name="brain"),
     "episodes.jsonl", "line 1: medium is not generation's"),
    (lambda d, line: line["controller"].update(deadband=0.06),
     "episodes.jsonl", "line 1: controller is not CONTROLLER"),
    (lambda d, line: d["episodes"][1].update(
        steps=d["episodes"][1]["steps"] + 1),
     "episodes.jsonl", "line 2: steps or final error is not entry 1's"),
    (lambda d, line: d["episodes"][2].update(final_error=0.5),
     "episodes.jsonl", "line 3: steps or final error is not entry 2's"),
    (_workspace_copy(depth_max="x"),
     "manifest.json", "'generation': unknown keys ['workspace']"),
    (lambda d, line: d["generation"].update(seed=-1),
     "manifest.json", "generation seed -1 is negative"),
    (lambda d, line: d["generation"].update(seed=43),
     "episodes.jsonl", "line 1: seed is not generation's"),
    (_workspace_copy(depth_min=74.0),
     "manifest.json", "'generation': unknown keys ['workspace']"),
    (lambda d, line: line["target"].__setitem__(2, 30.0),
     "episodes.jsonl", "line 1: target depth is outside WORKSPACE"),
], ids=["medium_name", "controller", "entry_steps", "entry_final_error",
        "depth_max_string", "negative_seed", "seed_43", "depth_min_74",
        "target_depth_30"])
def test_cli_train_on_a_manifest_at_odds_with_its_lines_is_data_error(
        pipeline_files, tmp_path, capsys, edit, file, names):
    """Each line must be collected in generation's medium by CONTROLLER,
    under a seed drawn from generation's, to a target depth in WORKSPACE,
    and hold its entry's steps and final error, and generation's own
    values are typed and in range; a workspace it no longer holds, however
    edited, is an unknown key. `edit` takes the manifest and the first
    line. A fault fails naming the file and the line or key, and nothing
    is written."""
    episodes, argv = _copied_line_file(pipeline_files, tmp_path, "train")
    path = tmp_path / "ds" / "manifest.json"
    doc = json.loads(path.read_text())
    first, *rest = episodes.read_text().splitlines(keepends=True)
    line = json.loads(first)
    edit(doc, line)
    path.write_text(json.dumps(doc))
    episodes.write_text("".join([json.dumps(line, sort_keys=True,
                                            separators=(",", ":")) + "\n",
                                 *rest]))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"failed: {tmp_path / 'ds' / file}: ") and (
        names in err), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert _tree(tmp_path) == before


def test_cli_steer_truth(tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["evaluate", "--estimators", "truth", "--n", "1",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert "truth: mean targeting error" in capsys.readouterr().out
    assert ",arrived," in (out / "trials" / "summaries.csv").read_text()
    assert (out / "report.txt").exists()
    assert (out / "config.json").exists()


def test_cli_steer_subcommand_is_gone(tmp_path, capsys):
    """One trial is `evaluate --n 1`; the old single-trial command is an
    unknown subcommand."""
    out = tmp_path / "steer"
    assert main(["steer", "--estimator", "truth", "--seed", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'steer'" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_evaluate_target_steers_every_trial_under_its_own_seed(
        tmp_path, source):
    """A target from --target or from a config file replaces the sampled
    targets for every trial of every estimator. A trial's seed stays
    (seed, estimator index, trial index): each trial line is the one
    run_trial writes for that seed and the target."""
    out = tmp_path / "eval"
    argv = ["evaluate", "--estimators", "ekf,truth", "--n", "2", "--rigid",
            "--seed", "5", "--out", str(out)]
    if source == "flag":
        argv += ["--target", "3,4,60"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": [3, 4, 60]}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    lines = (out / "trials" / "episodes.jsonl").read_text().splitlines()
    config = resolve_config(None, {"rigid": True})
    target = np.array([3.0, 4.0, 60.0])
    expected = [
        record_to_line(run_trial(
            name, config.make_medium(), target,
            seed=(5, ESTIMATOR_NAMES.index(name), k), trial_id=2 * k + m))
        for k in range(2) for m, name in enumerate(("ekf", "truth"))]
    assert lines == expected
    assert [json.loads(line)["seed"] for line in lines] == [
        [5, 1, 0], [5, 0, 0], [5, 1, 1], [5, 0, 1]]
    recorded = json.loads((out / "config.json").read_text())
    assert recorded["target"] == [3.0, 4.0, 60.0]
    assert "estimator" not in recorded


def test_cli_config_file_holding_estimator_is_usage_error(tmp_path, capsys):
    """A config.json resolved before a setting was deleted still holds it:
    "estimator" (evaluate's one estimator, before it took a list),
    "jitter", "bin_width", "depth_cap", "train_fraction", the training
    settings TrainConfig and lstm.LEARNING_RATE own ("batch_size",
    "learning_rate", "dropout", "hidden_size"), and the copies of the
    CONTROLLER and WORKSPACE constants. Each is an unknown key,
    named, and a deleted flag, or one a subcommand never read, is an
    unknown flag; no run writes anything."""
    out = tmp_path / "out"
    workspace_keys = ("depth_min", "depth_max", "radial_margin")
    controller_keys = ("insertion_speed", "rotation_speed", "rate",
                       "deadband", "arrival_tolerance")
    for command, key, value in [
            ("evaluate", "estimator", "lstm"),
            ("generate", "jitter", 0.25),
            ("evaluate", "bin_width", 0.1),
            ("evaluate", "depth_cap", 80.0),
            ("generate", "depth_cap", 80.0),
            ("generate", "train_fraction", 6.0 / 7.0),
            ("train", "batch_size", 8),
            ("train", "learning_rate", 3e-3),
            ("train", "dropout", 0.2),
            ("train", "hidden_size", 30),
            *(("generate", k, getattr(WORKSPACE, k))
              for k in workspace_keys),
            *(("evaluate", k, getattr(CONTROLLER, k))
              for k in controller_keys)]:
        old = tmp_path / key
        write_resolved_config(resolve_config(None, {"n": 2}), old)
        doc = json.loads((old / "config.json").read_text())
        doc[key] = value
        (old / "config.json").write_text(json.dumps(doc))
        base = ([command, "--estimators", "truth"] if command == "evaluate"
                else [command])
        assert main([*base, "--config", str(old / "config.json"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unknown keys [{key!r}]" in err
        assert not out.exists()
    for argv in (["generate", "--n", "2", "--jitter", "0.25"],
                 ["generate", "--n", "2", "--train-fraction", "0.5"],
                 ["evaluate", "--estimators", "truth", "--n", "2",
                  "--bin-width", "0.1"],
                 ["train", "--dataset", str(tmp_path / "ds"), "--jobs", "2"],
                 ["train", "--dataset", str(tmp_path / "ds"),
                  "--batch-size", "8"],
                 ["train", "--dataset", str(tmp_path / "ds"),
                  "--learning-rate", "3e-3"],
                 ["train", "--dataset", str(tmp_path / "ds"),
                  "--dropout", "0.2"],
                 ["train", "--dataset", str(tmp_path / "ds"),
                  "--hidden-size", "30"],
                 ["report", "--seed", "1"],
                 ["report", "--jobs", "2"]):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: unrecognized arguments")
        assert argv[-2] in err
        assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (json.dumps({"target": [math.nan, 0.0, 60.0]}),
     "target coordinates must be finite"),
    (json.dumps({"estimators": []}),
     "estimators must name at least one estimator"),
    ("[" * 100_000, "JSON nested too deeply"),
], ids=["nan_target", "no_estimators", "nested_json"])
def test_cli_config_file_fault_is_named_before_writing(tmp_path, capsys, text,
                                                       message):
    """A NaN target coordinate was reported as a target behind the entry
    point, an empty estimator list reached the report as "nothing to
    report", and JSON nested deeper than json.loads recurses was a
    RecursionError traceback; each is named by its own check, before
    anything is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "eval"
    assert main(["evaluate", "--n", "1", "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert message in err
    assert not out.exists()


def test_cli_steer_ekf_rigid_lands_under_a_millimetre(tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["evaluate", "--estimators", "ekf", "--n", "1", "--rigid",
                 "--seed", "4", "--target", "3,4,60", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    err = float(text.split("mean targeting error ")[1].split(" mm")[0])
    assert err < 1.0


def test_cli_steer_target_needs_three_coordinates(tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--estimators", "truth", "--n", "1",
                 "--target", "3,4", "--out", str(out)]) == 1
    assert "target must have three coordinates" in capsys.readouterr().err
    assert not out.exists()


def test_cli_steer_lstm_requires_model(tmp_path, capsys):
    assert main(["evaluate", "--estimators", "lstm", "--n", "1",
                 "--out", str(tmp_path / "x")]) == 1
    assert "--model" in capsys.readouterr().err


def test_cli_steer_on_model_missing_a_parameter_is_usage_error(tmp_path,
                                                               capsys):
    """A model file with a missing, unknown or wrong-typed field is a usage
    error, and so is one that loads but cannot steer: a non-finite or
    non-positive z_max (json writes and reads Infinity and NaN), a
    parameter with one value too few or too many for the hidden size
    len(b_fc), parameter text that is not strict base64 of whole float64
    values or is a list of numbers, a hidden size of 0, a schema-1, 2 or 3
    file (which must be re-trained), a top level that is not an object, or
    text that is not JSON, nested too deep to parse too. Each prints one
    error line, naming the file
    where the fault is in it, and writes nothing."""
    path = tmp_path / "model.json"
    save_model(init_model(75.0, hidden_size=4, seed=1), path)
    saved = path.read_text()

    def schema_1(doc):  # the layout before every field was stored once
        params = {name: {"shape": list(shape), "data": doc.pop(name)}
                  for name, shape in param_shapes(4).items()}
        doc.update(schema_version=1, hidden_size=4, input_size=8,
                   dropout_rate=0.2, params=params)

    def schema_2(doc):  # the layout that stored the training dropout rate
        schema_3(doc)
        doc.update(schema_version=2, dropout_rate=0.2)

    def schema_3(doc):  # the layout that stored each parameter as numbers
        doc.update({name: _floats(doc[name]).tolist()
                    for name in param_shapes(4)}, schema_version=3)

    def resized(name, size):  # the parameter cut or cycled to size values
        def edit(doc):
            doc[name] = _column(np.resize(_floats(doc[name]), size))
        return edit

    cases = [
        (lambda doc: doc.pop("w_fc"), "missing field 'w_fc'"),
        (lambda doc: doc.pop("z_max"), "'z_max'"),
        (lambda doc: doc.update(hidden_size=4),
         "unknown keys ['hidden_size']"),
        (lambda doc: doc.update(dropout_rate=0.2),
         "unknown keys ['dropout_rate']"),
        (schema_1, "unsupported model schema 1"),
        (schema_2, "unsupported model schema 2"),
        (schema_3, "unsupported model schema 3"),
        (lambda doc: doc.update(z_max=[75.0]), "'z_max' must be float"),
        (lambda doc: doc.update(z_max=True), "'z_max' must be float"),
        (lambda doc: doc.update(z_max="75"), "'z_max' must be float"),
        (lambda doc: doc.update(metadata=[]), "'metadata' must be dict"),
        (lambda doc: doc.update(b_out="*" + doc["b_out"][1:]),
         "'b_out' is not strict base64 of float64 bytes"),
        # b_g's 128 bytes end in one padding character; a text one shorter
        # is no whole base64
        (lambda doc: doc.update(b_g=doc["b_g"][:-1]),
         "'b_g' is not strict base64 of float64 bytes (Incorrect padding)"),
        (lambda doc: doc.update(w_out=base64.b64encode(
            base64.b64decode(doc["w_out"])[:-3]).decode()),
         "'w_out' is not strict base64 of float64 bytes (buffer size must "
         "be a multiple of element size)"),
        (lambda doc: doc.update(b_out=_floats(doc["b_out"]).tolist()),
         "'b_out' must be a base64 string"),
        (lambda doc: doc.update(z_max=math.inf), "z_max must be finite"),
        (lambda doc: doc.update(z_max=math.nan), "z_max must be finite"),
        (lambda doc: doc.update(z_max=0.0), "z_max must be finite"),
        (resized("w_x", 127),
         "parameter 'w_x' holds 127 values, not the 128 of shape (16, 8) "
         "at hidden size 4"),
        (resized("w_x", 129),
         "parameter 'w_x' holds 129 values, not the 128 of shape (16, 8) "
         "at hidden size 4"),
        (resized("b_g", 15),
         "parameter 'b_g' holds 15 values, not the 16 of shape (16,) "
         "at hidden size 4"),
        (resized("b_g", 17),
         "parameter 'b_g' holds 17 values, not the 16 of shape (16,) "
         "at hidden size 4"),
        # every parameter empty but b_out: the shapes of hidden size 0
        (lambda doc: doc.update({name: "" for name in param_shapes(0)
                                 if name != "b_out"}),
         "hidden size must be at least 1"),
    ]
    damaged = []
    for damage, expect in cases:
        doc = json.loads(saved)
        damage(doc)
        damaged.append((json.dumps(doc), expect))
    damaged.append((f"[{saved}]", "is not a JSON object"))
    damaged.append((saved[:len(saved) // 2], f"model file {path}: "))
    damaged.append(("[" * 100_000, f"model file {path}: JSON nested too "
                                   "deeply"))
    for text, expect in damaged:
        path.write_text(text)
        capsys.readouterr()
        assert main(["evaluate", "--estimators", "lstm", "--n", "1",
                     "--model", str(path),
                     "--out", str(tmp_path / "x")]) == 1, expect
        err = capsys.readouterr().err
        assert err.startswith("error:") and expect in err, (expect, err)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x").exists()


def test_cli_evaluate_and_report_idempotent(tmp_path, capsys):
    """report rebuilds every view of a run from trials/episodes.jsonl."""
    out = tmp_path / "eval"
    code = main(["evaluate", "--estimators", "truth,ekf", "--rigid",
                 "--n", "2", "--seed", "6", "--out", str(out)])
    assert code == 0
    views = [out / "trials" / "summaries.csv", out / "histogram.csv",
             out / "report.txt"]
    before = [path.read_bytes() for path in views]
    for path in views:
        path.unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert [path.read_bytes() for path in views] == before


def _damaged_trials(tmp_path, damage):
    out = tmp_path / "eval"
    assert main(["evaluate", "--estimators", "truth,ekf", "--rigid",
                 "--n", "2", "--seed", "6", "--out", str(out)]) == 0
    trials = out / "trials" / "episodes.jsonl"
    lines = trials.read_text().splitlines(keepends=True)
    trials.write_text("".join(damage(lines)))
    return out


def test_cli_report_without_a_trial_record_is_data_error(tmp_path, capsys):
    # trial 3's record cut short
    out = _damaged_trials(
        tmp_path, lambda lines: lines[:3] + [lines[3][:len(lines[3]) // 2]])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and "line 4 is not valid JSON" in err
    assert "Traceback" not in err


def test_cli_report_on_an_empty_trial_file_is_data_error(tmp_path, capsys):
    out = _damaged_trials(tmp_path, lambda lines: [])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and "episodes.jsonl: no trial records" in err


def test_cli_report_on_a_repeated_trial_is_data_error(tmp_path, capsys):
    out = _damaged_trials(tmp_path, lambda lines: lines[:2] + lines[1:])
    rendered = {p: p.read_bytes() for p in out.rglob("*.*")}
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and "line 3 holds record 1," in err
    assert err.count("\n") == 1
    assert {p: p.read_bytes() for p in out.rglob("*.*")} == rendered


def test_cli_report_on_a_missing_trial_is_data_error(tmp_path, capsys):
    out = _damaged_trials(tmp_path, lambda lines: lines[:1] + lines[2:])
    rendered = {p: p.read_bytes() for p in out.rglob("*.*")}
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and "line 2 holds record 2," in err
    assert err.count("\n") == 1
    assert {p: p.read_bytes() for p in out.rglob("*.*")} == rendered


def _as_schema(line: str, version: int) -> str:
    """An episode or trial line as schema 2 wrote it, or schema 1, which
    also held the time axis and the commanded insertion speed as columns."""
    doc = json.loads(line)
    _to_schema_2(doc)
    if version == 1:
        n = len(doc["base_angle"])
        controller = doc["controller"]
        doc.update(schema_version=1,
                   t=[k * (1.0 / controller["rate"]) for k in range(n)],
                   insertion_speed=[controller["insertion_speed"]] * n)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _report_on_old_trials(tmp_path, capsys, version):
    out = _damaged_trials(
        tmp_path, lambda lines: [_as_schema(line, version) for line in lines])
    rendered = {p: p.read_bytes() for p in out.rglob("*.*")}
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and err.count("\n") == 1
    assert "line 1" in err and f"unsupported episode schema {version}" in err
    assert {p: p.read_bytes() for p in out.rglob("*.*")} == rendered


def test_cli_report_on_schema_1_trials_is_data_error(tmp_path, capsys):
    _report_on_old_trials(tmp_path, capsys, 1)


def test_cli_report_on_schema_2_trials_is_data_error(tmp_path, capsys):
    _report_on_old_trials(tmp_path, capsys, 2)


def _as_manifest_schema(doc, lines, version):
    """A manifest's object as schema `version` wrote it: schema 5 also
    stored the workspace and the controller in generation; schema 4 also
    stored the episode count, the line schema 3 and the depth cap there;
    schema 3 also stored z_max, the config hash, the episodes
    file name and, in each entry, the seed, medium name, target depth and
    split label of its line; schemas 1 and 2 set generation's
    schema_version to theirs, and schema 1 held z_max in generation too."""
    doc["generation"].update(workspace=dataclasses.asdict(WORKSPACE),
                             controller=dataclasses.asdict(CONTROLLER))
    doc["schema_version"] = version
    if version == 5:
        return
    doc["generation"].update(n=len(lines), schema_version=3, depth_cap=80.0)
    if version == 4:
        return
    blob = json.dumps(doc["generation"], sort_keys=True, separators=(",", ":"))
    doc.update(episodes_file="episodes.jsonl",
               z_max=doc["generation"]["workspace"]["depth_max"],
               config_hash=hashlib.sha256(blob.encode()).hexdigest())
    labels = split_labels(len(lines), doc["generation"]["seed"])
    for entry, line, label in zip(doc["episodes"], lines, labels):
        rec = json.loads(line)
        entry.update(seed=rec["seed"], medium_name=rec["medium"]["name"],
                     target_depth=rec["target"][2], split=label)
    if version < 3:
        doc["generation"]["schema_version"] = version
    if version == 1:
        doc["generation"]["z_max"] = doc["z_max"]


def _train_on_old_dataset(tmp_path, capsys, version):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "2", "--seed", "3", "--out", str(ds)]) == 0
    episodes = ds / "episodes.jsonl"
    lines = episodes.read_text().splitlines()
    if version < 3:
        episodes.write_text("".join(_as_schema(line, version)
                                    for line in lines))
    manifest = ds / "manifest.json"
    doc = json.loads(manifest.read_text())
    _as_manifest_schema(doc, lines, version)
    manifest.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(_train_argv(ds, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("failed:") and err.count("\n") == 1
    assert ("manifest.json" in err
            and f"unsupported manifest schema {version}" in err)
    assert not (tmp_path / "run").exists()


def test_cli_train_on_schema_1_dataset_is_data_error(tmp_path, capsys):
    _train_on_old_dataset(tmp_path, capsys, 1)


def test_cli_train_on_schema_2_dataset_is_data_error(tmp_path, capsys):
    _train_on_old_dataset(tmp_path, capsys, 2)


def test_cli_train_on_schema_3_dataset_is_data_error(tmp_path, capsys):
    """Schema 3, whose manifest stored copies of derived facts, fails on
    its manifest version though its episode lines are still read."""
    _train_on_old_dataset(tmp_path, capsys, 3)


def test_cli_train_on_schema_4_dataset_is_data_error(tmp_path, capsys):
    """Schema 4, whose generation stored the episode count, the line
    schema and the depth cap, fails on its manifest version."""
    _train_on_old_dataset(tmp_path, capsys, 4)


def test_cli_train_on_schema_5_dataset_is_data_error(tmp_path, capsys):
    """Schema 5, whose generation stored the workspace and the controller,
    fails on its manifest version."""
    _train_on_old_dataset(tmp_path, capsys, 5)


def test_cli_evaluate_deterministic_across_jobs(tmp_path):
    model = tmp_path / "model.json"
    save_model(init_model(75.0, hidden_size=4, seed=1), model)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["evaluate", "--estimators", "truth,ekf,lstm", "--n", "2",
                     "--seed", "4", "--model", str(model), "--jobs", jobs,
                     "--out", str(out)]) == 0
        outs.append(out)
    files = {p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file()}
    assert files == {p.relative_to(outs[1]) for p in outs[1].rglob("*")
                     if p.is_file()}
    # config.json records --jobs; every other file must match byte for byte
    files.remove(Path("config.json"))
    assert len(files) == 4
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_cli_default_counts_are_recorded(tmp_path, capsys):
    for command, default in (("generate", DEFAULT_EPISODES),
                             ("evaluate", DEFAULT_TRIALS)):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"(default {default})" in capsys.readouterr().out
    out = tmp_path / "eval"
    assert main(["evaluate", "--estimators", "truth", "--rigid", "--seed", "2",
                 "--out", str(out)]) == 0
    assert f"over {DEFAULT_TRIALS} trials" in capsys.readouterr().out
    assert json.loads((out / "config.json").read_text())["n"] == DEFAULT_TRIALS


@pytest.mark.parametrize("command, key, value", [
    ("evaluate", "jobs", "2"),
    ("train", "epochs", 2.5),
    ("evaluate", "estimators", "ekf"),
])
def test_cli_config_file_wrong_type_is_usage_error(tmp_path, capsys, command,
                                                   key, value):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value, "out": str(out),
                               "dataset": str(tmp_path / "ds")}))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("generate", "deadband", math.nan),
    ("generate", "insertion_speed", math.inf),
    ("generate", "rate", -math.inf),
    ("generate", "arrival_tolerance", math.inf),
    ("generate", "depth_max", math.inf),
    ("evaluate", "depth_cap", math.nan),
    ("evaluate", "rotation_speed", math.nan),
    ("evaluate", "target", [math.inf, 0.0, 60.0]),
])
def test_cli_config_file_non_finite_setting_is_usage_error(tmp_path, capsys,
                                                           command, key,
                                                           value):
    """A config file can hold NaN and Infinity; each fails the boundary
    with one error line that names the key, before anything is written.
    The keys of the deleted ControllerParams and WorkspaceCone copies fail
    as unknown keys, and still name the key."""
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value, "out": str(out), "n": 2,
                               "estimators": ["truth"]}))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert key in err
    assert not out.exists()


def test_cli_evaluate_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "rigid": True,
                               "estimators": ["ekf"]}))
    out = tmp_path / "eval"
    code = main(["evaluate", "--config", str(cfg), "--medium", "brain",
                 "--seed", "8", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "config.json").read_text())
    assert doc["medium"] == "brain"  # flag override
    assert doc["n"] == 1 and doc["rigid"] is True  # from file
    assert "[brain / ekf]" in (out / "report.txt").read_text()
