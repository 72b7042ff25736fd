import dataclasses
import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needleroll import dataset
from needleroll.controller import CONTROLLER
from needleroll.dataset import (
    DEPTH_CAP,
    ESTIMATOR_COLUMNS,
    MANIFEST_SCHEMA_VERSION,
    STEP_COLUMNS,
    DatasetError,
    EpisodeRecord,
    Generation,
    GenerationStalled,
    config_hash,
    episode_to_sequence,
    generate_dataset,
    load_episodes,
    load_manifest,
    record_from_line,
    record_from_logs,
    record_to_line,
    run_closed_loop,
    split_labels,
    to_training_sequences,
)
from needleroll.ekf import EkfRollTracker
from needleroll.evaluate import run_trial
from needleroll.lstm import scale_features
from needleroll.schema import decode_column, encode_column
from needleroll.plant import (
    GELATIN,
    MEDIUM_PRESETS,
    WORKSPACE,
    rigid_variant,
    sample_target,
)
from oracles import record_line_dumps, roll_target


def small_dataset(tmp_path, n=4, seed=7, name="ds"):
    root = tmp_path / name
    manifest = generate_dataset(n=n, medium=GELATIN, seed=seed, root=root)
    return root, manifest


# ---------------------------------------------------------------- collection

def test_closed_loop_truth_steering_arrives():
    rng = np.random.default_rng(0)
    target = np.array([5.0, -3.0, 55.0])
    logs, state, outcome, err = run_closed_loop(GELATIN, target, rng)
    assert outcome == "arrived"
    assert err < 1.0
    n = len(logs["base_angle"])
    assert n > 0 and all(len(column) == n for column in logs.values())
    rec = record_from_logs(0, (0,), GELATIN, target, outcome, err, logs)
    assert rec.steps == n
    assert np.array_equal(rec.position, np.array(logs["position"]))


def test_closed_loop_depth_cap():
    """A target deeper than the cap is never reached."""
    rng = np.random.default_rng(1)
    target = np.array([0.0, 0.0, DEPTH_CAP + 10.0])
    logs, state, outcome, err = run_closed_loop(GELATIN, target, rng)
    assert outcome == "depth_capped"
    assert state.depth >= DEPTH_CAP
    assert err > 1.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(medium=st.sampled_from(sorted(MEDIUM_PRESETS)),
       seed=st.integers(0, 2 ** 32 - 1),
       estimator=st.sampled_from(["truth", "ekf"]))
def test_closed_loop_ends_within_the_depth_cap(medium, seed, estimator):
    """Any preset medium, target and estimator: the loop arrives or hits
    the depth cap within depth_cap / (speed * dt) + 1 ticks, and every
    pose it logs is finite."""
    params = MEDIUM_PRESETS[medium]
    rng = np.random.default_rng(seed)
    target = sample_target(WORKSPACE, rng)
    tracker = EkfRollTracker(params) if estimator == "ekf" else None
    logs, state, outcome, _ = run_closed_loop(params, target, rng,
                                              estimator=tracker)
    assert outcome in ("arrived", "depth_capped")
    ticks = len(logs["base_angle"]) + (outcome == "arrived")
    dt = 1.0 / CONTROLLER.rate
    assert ticks <= DEPTH_CAP / (CONTROLLER.insertion_speed * dt) + 1
    for name in ("position", "heading", "R_true", "R_est"):
        assert np.isfinite(np.array(logs[name])).all(), name
    assert np.isfinite(state.p).all() and np.isfinite(state.rows).all()


def test_generate_deterministic_bytes(tmp_path):
    root_a, _ = small_dataset(tmp_path, n=2, seed=3, name="a")
    root_b, _ = small_dataset(tmp_path, n=2, seed=3, name="b")
    assert (root_a / "episodes.jsonl").read_bytes() == \
        (root_b / "episodes.jsonl").read_bytes()
    assert (root_a / "manifest.json").read_bytes() == \
        (root_b / "manifest.json").read_bytes()


def test_generate_different_seeds_differ(tmp_path):
    root_a, _ = small_dataset(tmp_path, n=2, seed=3, name="a")
    root_b, _ = small_dataset(tmp_path, n=2, seed=4, name="b")
    assert (root_a / "episodes.jsonl").read_bytes() != \
        (root_b / "episodes.jsonl").read_bytes()


def test_generate_sixty_gelatin_episodes(tmp_path):
    """Bulk collection: every accepted episode steers under the millimetre
    threshold and target depths cover the sampling interval."""
    root, manifest = small_dataset(tmp_path, n=60, seed=11, name="bulk")
    assert len(manifest.episodes) == 60
    errors = [m.final_error for m in manifest.episodes]
    assert max(errors) < 1.0
    records = load_episodes(root, manifest)
    depths = [rec.target[2] for rec in records]
    assert min(depths) >= 40.0 and max(depths) <= 75.0
    assert min(depths) < 48.0 and max(depths) > 67.0  # actually spread out
    assert all(rec.outcome == "arrived" for rec in records)
    assert max(rec.position[:, 2].max() for rec in records) <= 76.0


def test_generate_without_jitter_keeps_preset(tmp_path):
    root, manifest = small_dataset(tmp_path, n=2, seed=5)
    for rec in load_episodes(root, manifest):
        assert rec.medium == GELATIN


def test_generate_stalls_on_unreachable_targets(tmp_path, monkeypatch):
    monkeypatch.setattr("needleroll.dataset.DEPTH_CAP", 20.0)
    with pytest.raises(GenerationStalled):
        generate_dataset(n=2, medium=GELATIN, seed=0, root=tmp_path / "stall")


def test_collect_episode_discards_a_miss_over_the_limit(monkeypatch):
    """An attempt that arrives 1.5 mm off the target is thrown away and the
    next one kept: the line's seed ends in attempt index 1."""
    calls = []

    def first_misses(medium, target, rng):
        logs, state, outcome, final_error = run_closed_loop(medium, target,
                                                            rng)
        calls.append((outcome, final_error))
        return logs, state, outcome, 1.5 if len(calls) == 1 else final_error

    monkeypatch.setattr(dataset, "run_closed_loop", first_misses)
    line, meta = dataset._collect_episode((0, 23, GELATIN))
    rec = record_from_line(line)
    # both attempts arrive within the limit: only the 1.5 mm sets them apart
    assert [outcome for outcome, _ in calls] == ["arrived", "arrived"]
    assert max(error for _, error in calls) < dataset.COLLECTION_ERROR_LIMIT
    assert rec.seed == (23, 0, 1)
    assert (meta.steps, meta.final_error) == (rec.steps, calls[1][1])


def test_generate_rejects_empty(tmp_path):
    """An empty or a single-episode dataset is refused before root is
    created, so no directory is left behind."""
    root = tmp_path / "x"
    for n in (0, 1):
        with pytest.raises(ValueError):
            generate_dataset(n=n, medium=GELATIN, seed=0, root=root)
        assert not root.exists()


# --------------------------------------------------------------- persistence

def test_record_roundtrip_bit_exact(tmp_path):
    root, manifest = small_dataset(tmp_path, n=2, seed=13)
    rec = load_episodes(root, manifest)[0]
    line = record_to_line(rec)
    back = record_from_line(line)
    assert back.episode_id == rec.episode_id
    assert back.seed == rec.seed
    assert back.medium == rec.medium
    assert back.controller == rec.controller
    assert back.outcome == rec.outcome
    assert back.final_error == rec.final_error
    for name in ("target", "position", "heading", "base_angle",
                 "roll_true", "rotation_speed"):
        assert np.array_equal(getattr(back, name), getattr(rec, name)), name
    assert record_to_line(back) == line


def test_record_estimator_columns_roundtrip_bit_exact(tmp_path):
    root, manifest = small_dataset(tmp_path, n=2, seed=13)
    line = (root / "episodes.jsonl").read_text().splitlines()[0]
    # a generated episode carries no estimator columns
    doc = json.loads(line)
    assert not {"estimator", "roll_est", "angular_error"} & doc.keys()
    rec = record_from_line(line)
    assert rec.roll_est is None and rec.angular_error is None
    assert rec.estimator is None
    rng = np.random.default_rng(3)
    columns = {"roll_est": rng.uniform(-math.pi, math.pi, size=rec.steps),
               "angular_error": rng.uniform(0.0, math.pi, size=rec.steps)}
    columns["angular_error"][0] = math.pi
    trial = dataclasses.replace(rec, estimator="ekf", **columns)
    trial_line = record_to_line(trial)
    back = record_from_line(trial_line)
    for name, values in columns.items():
        assert getattr(back, name).tobytes() == values.tobytes(), name
    assert back.estimator == "ekf"
    assert record_to_line(back) == trial_line
    # the columns are the only difference from the generated line
    trial_doc = json.loads(trial_line)
    for name in ("estimator", "roll_est", "angular_error"):
        del trial_doc[name]
    assert json.dumps(trial_doc, sort_keys=True, separators=(",", ":")) == line


# values a column must keep bit for bit: zeros of both signs (equal as
# floats), repeats, the smallest subnormal and numbers whose repr is in
# exponent form
AWKWARD = [0.0, -0.0, 0.5, 0.5, -0.0, 0.0, 5e-324, 5e-324, 1e-05, 1e+16,
           1e-05, -2.5, -2.5, 1e+16, 0.0, -0.0]


def hand_built_record(**fields):
    """A record with AWKWARD in each scalar column, each in its own order,
    so the columns share values and zeros of both signs, and unit
    headings."""
    n = len(AWKWARD)
    rng = np.random.default_rng(5)
    heading = rng.uniform(-1.0, 1.0, (n, 3))
    values = dict(
        episode_id=4, seed=(9, 4, 1), medium=GELATIN, controller=CONTROLLER,
        target=(1.5, -2.0, 60.0), outcome="arrived",
        final_error=0.125, position=rng.uniform(-5.0, 60.0, (n, 3)),
        heading=heading / np.linalg.norm(heading, axis=1, keepdims=True),
        base_angle=np.array(AWKWARD), roll_true=np.array(AWKWARD[::-1]),
        rotation_speed=np.roll(AWKWARD, 5))
    values.update(fields)
    return EpisodeRecord(**values)


@pytest.mark.parametrize("fields", [
    {},
    {"roll_est": np.array(AWKWARD[::-1]),
     "angular_error": np.minimum(np.abs(AWKWARD), math.pi),
     "estimator": "ekf"},
], ids=["generated", "ekf_trial"])
def test_record_line_is_the_sorted_compact_dumps(fields):
    rec = hand_built_record(**fields)
    line = record_to_line(rec)
    assert line == record_line_dumps(rec)
    back = record_from_line(line)
    assert back.target == rec.target
    # tobytes tells -0.0 from 0.0
    for name in (*STEP_COLUMNS, *ESTIMATOR_COLUMNS):
        value = getattr(rec, name)
        if value is not None:
            assert getattr(back, name).tobytes() == value.tobytes(), name
    assert back.estimator == rec.estimator
    assert record_to_line(back) == line


def test_record_line_null_column_reads_as_absent():
    """An optional column given as null reads as one left out, as the
    type check lets `X | None` take null."""
    doc = json.loads(record_to_line(hand_built_record()))
    back = record_from_line(json.dumps(dict(doc, roll_est=None)))
    assert back.roll_est is None and back.angular_error is None


def test_trial_and_episode_lines_are_the_sorted_compact_dumps():
    trial = run_trial("ekf", GELATIN, np.array([3.0, -2.0, 50.0]), seed=3)
    episode = dataclasses.replace(trial, roll_est=None, angular_error=None,
                                  estimator=None)
    for rec in (trial, episode):
        assert record_to_line(rec) == record_line_dumps(rec)


def test_record_line_writes_any_column_as_dumps_does():
    """Values no valid record holds are written by the same rule: NaN and
    the infinities keep their bits, and an int and a float32 column are
    written as the float64 values they hold."""
    n = len(AWKWARD)
    rec = hand_built_record(
        base_angle=np.arange(n) % 3,
        roll_true=np.array([1.0, 2.0, math.nan, math.inf, -math.inf] * 3
                           + [math.nan]),
        rotation_speed=np.array(AWKWARD, dtype=np.float32))
    line = record_to_line(rec)
    assert line == record_line_dumps(rec)
    doc = json.loads(line)
    for name in ("base_angle", "roll_true", "rotation_speed"):
        expect = getattr(rec, name).astype(np.float64)
        assert decode_column(doc[name], name).tobytes() == expect.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=30),
       width=st.sampled_from([1, 3]))
def test_column_codec_round_trips_any_float64_bits(bits, width):
    """Any float64 bit pattern, NaN payloads and subnormals included,
    decodes from its column text bitwise equal, rows in order."""
    flat = np.array(bits, dtype=np.uint64).view(np.float64)
    column = flat[:len(flat) - len(flat) % width].reshape(-1, width)
    back = decode_column(encode_column(column), "c").reshape(-1, width)
    assert back.tobytes() == column.tobytes()


@pytest.mark.parametrize("name, damage, expect, line_expect", [
    ("roll_est", lambda v: v[:-1], "roll_est must match", None),
    ("angular_error", lambda v: np.append(v, 0.1), "angular_error must match",
     None),
    ("roll_est", lambda v: np.where(np.arange(len(v)) == 2, np.nan, v),
     "roll_est must be finite", None),
    ("angular_error", lambda v: np.where(np.arange(len(v)) == 2, np.nan, v),
     "angular_error must be finite", None),
    ("angular_error", lambda v: v + math.pi, r"\[0, pi\]", None),
    ("angular_error", lambda v: v - 1.0, r"\[0, pi\]", None),
    # a line fails the type check of its fields before validate runs
    ("estimator", lambda v: 3, "estimator must be a string",
     "'estimator' must be str"),
], ids=["short", "long", "nan_roll", "nan_error", "above_pi", "negative",
        "estimator_not_a_string"])
def test_record_estimator_columns_are_validated(tmp_path, name, damage, expect,
                                                line_expect):
    root, manifest = small_dataset(tmp_path, n=2, seed=13)
    rec = load_episodes(root, manifest)[0]
    good = {"roll_est": np.zeros(rec.steps),
            "angular_error": np.full(rec.steps, 0.5), "estimator": "ekf"}
    dataclasses.replace(rec, **good).validate()
    bad = dataclasses.replace(rec, **dict(good, **{name: damage(good[name])}))
    with pytest.raises(ValueError, match=expect):
        bad.validate()
    with pytest.raises(ValueError, match=line_expect or expect):
        record_from_line(record_to_line(bad))


def test_record_line_rejects_wrong_schema(tmp_path):
    import json

    root, manifest = small_dataset(tmp_path, n=2, seed=13)
    line = record_to_line(load_episodes(root, manifest)[0])
    doc = json.loads(line)
    doc["schema_version"] = 42
    with pytest.raises(ValueError):
        record_from_line(json.dumps(doc))


@pytest.mark.parametrize("edit, expect", [
    (lambda d: d.update(schema_version=True), "unsupported episode schema"),
    (lambda d: d.pop("schema_version"), "unsupported episode schema None"),
    (lambda d: d["target"].__setitem__(0, 10**400),
     "'target'[0] must be float, got 1000"),
    (lambda d: d.update(final_error=-10**400), "'final_error' must be float"),
    (lambda d: d["target"].__setitem__(0, [0.0]),
     "'target'[0] must be float, got [0.0]"),
    (lambda d: d.update(rotation_speed={}),
     "'rotation_speed' must be a base64 string"),
    (lambda d: d.update(target=[]), "target must hold three numbers"),
    (lambda d: d.update(target=d["target"][:2]),
     "target must hold three numbers"),
    (lambda d: d["target"].append(1.0), "target must hold three numbers"),
], ids=["bool_version", "no_version", "int_past_float_range",
        "negative_int_past_float_range", "nested_list", "object_column",
        "empty_target", "short_target", "long_target"])
def test_record_line_type_check_is_a_value_error(tmp_path, edit, expect):
    """Every fault of a line is a ValueError naming what is wrong, so
    read_records need catch nothing else."""
    root, manifest = small_dataset(tmp_path, n=2, seed=13)
    doc = json.loads(record_to_line(load_episodes(root, manifest)[0]))
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(expect)):
        record_from_line(json.dumps(doc))


def test_manifest_roundtrip(tmp_path):
    """The manifest on disk is the returned one, and stores the generation
    and four fields an entry, nothing derived: the labels are the
    seed's."""
    root, manifest = small_dataset(tmp_path, n=3, seed=17)
    loaded = load_manifest(root)
    assert loaded == manifest
    doc = json.loads((root / "manifest.json").read_text())
    assert sorted(doc) == ["episodes", "generation", "schema_version"]
    assert doc["schema_version"] == MANIFEST_SCHEMA_VERSION
    assert sorted(doc["generation"]) == ["medium", "seed"]
    assert [sorted(m) for m in doc["episodes"]] == [
        ["episode_id", "final_error", "line", "steps"]] * 3
    assert manifest.labels == split_labels(3, 17)
    assert set(manifest.labels) == {"train", "val"}


@pytest.mark.parametrize("depth", [
    math.nextafter(WORKSPACE.depth_min, -math.inf),
    math.nextafter(WORKSPACE.depth_max, math.inf),
], ids=["shallower", "deeper"])
def test_manifest_rejects_depth_outside_workspace(tmp_path, depth):
    """Each line's target depth lies in WORKSPACE's depth range, checked
    exactly as the episodes load: a line whose target is one ulp shallower
    or deeper fails, naming that line, and one on either bound loads."""
    root, manifest = small_dataset(tmp_path, n=2, seed=13)
    path = root / manifest.episodes_file
    lines = path.read_text().splitlines()
    doc = json.loads(lines[1])
    for z, fails in ((depth, True), (float(round(depth)), False)):
        doc["target"][2] = z
        path.write_text("\n".join([lines[0], json.dumps(
            doc, sort_keys=True, separators=(",", ":"))]) + "\n")
        if fails:
            with pytest.raises(DatasetError, match="line 2: target depth is "
                               "outside WORKSPACE"):
                load_episodes(root, manifest)
        else:
            assert load_episodes(root, manifest)[1].target[2] == z


def test_config_hash_sensitivity():
    """The hash follows the generation's two fields: `generate --n 70
    --seed 42` prints this prefix."""
    a = Generation(GELATIN, 42)
    b = dataclasses.replace(a, seed=43)
    assert config_hash(a) == config_hash(a)
    assert config_hash(a) != config_hash(b)
    assert config_hash(a).startswith("3e4902504d65")


def _leaves(doc, path=()):
    """(path, value) of each non-dict value nested in doc."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key), value


def _edited(value):
    """Another value of value's type: a flipped bool, another preset name,
    a number + 1 or x 1.5."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return next(name for name in MEDIUM_PRESETS if name != value)
    return value * 1.5 if isinstance(value, float) and value else value + 1


# the copies of the two constants a schema-5 generation held beside these
CONSTANT_COPIES = {"workspace": dataclasses.asdict(WORKSPACE),
                   "controller": dataclasses.asdict(CONTROLLER)}
GENERATION_LEAVES = [path for path, _ in _leaves(dict(dataclasses.asdict(
    Generation(GELATIN, 3)), **CONSTANT_COPIES))]


@pytest.fixture(scope="module")
def three_episodes(tmp_path_factory):
    """The root of a three-episode seed-3 dataset."""
    return small_dataset(tmp_path_factory.mktemp("leaves"), n=3, seed=3)[0]


@pytest.mark.parametrize("path", GENERATION_LEAVES,
                         ids=[".".join(p) for p in GENERATION_LEAVES])
def test_every_generation_leaf_is_checked_or_moves_nothing(
        three_episodes, tmp_path, path):
    """No leaf a generation holds or held is an unchecked copy: an edit of
    any one fails as a DatasetError. A medium or seed edit fails against
    the first line, and an edited copy of WORKSPACE or CONTROLLER fails as
    an unknown key, as any value of it would."""
    shutil.copytree(three_episodes, tmp_path / "ds")
    file = tmp_path / "ds" / "manifest.json"
    doc = json.loads(file.read_text())
    scope = path[0]
    if scope in CONSTANT_COPIES:
        doc["generation"][scope] = dict(CONSTANT_COPIES[scope])
        expect = f"'generation': unknown keys [{scope!r}]"
    else:
        expect = f"line 1: {scope} is not generation's"
    *parents, key = path
    node = doc["generation"]
    for name in parents:
        node = node[name]
    node[key] = _edited(node[key])
    file.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=re.escape(expect)):
        to_training_sequences(tmp_path / "ds", load_manifest(tmp_path / "ds"))


# -------------------------------------------------------------------- splits

def test_split_full_scale_ratio():
    labels = split_labels(280, seed=1)
    assert (labels.count("train"), labels.count("val")) == (240, 40)


def test_split_desk_scale_ratio():
    labels = split_labels(70, seed=1)
    assert (labels.count("train"), labels.count("val")) == (60, 10)


def test_split_deterministic_and_disjoint():
    """One label per episode, the same for the same seed, and not for
    another seed."""
    labels = split_labels(50, seed=9)
    assert labels == split_labels(50, seed=9)
    assert len(labels) == 50 and set(labels) == {"train", "val"}
    assert split_labels(50, seed=10) != labels


def test_split_never_empties_a_side():
    """6/7 of two or three episodes rounds to all of them; one stays
    in val. Fewer than two episodes cannot be split."""
    for n in (2, 3):
        labels = split_labels(n, seed=0)
        assert (labels.count("train"), labels.count("val")) == (n - 1, 1)
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least two episodes"):
            split_labels(n, seed=0)


# ---------------------------------------------------------- training tensors

def test_training_sequences_counts_and_scaling(tmp_path):
    root, manifest = small_dataset(tmp_path, n=3, seed=19)
    records = load_episodes(root, manifest)
    train_seqs, val_seqs = to_training_sequences(root, manifest)
    # each split in id order: the train episodes, then the val ones
    records = [rec for side in ("train", "val")
               for rec, label in zip(records, manifest.labels)
               if label == side]
    seqs = train_seqs + val_seqs
    assert len(seqs) == len(records) == 3
    for (xs, ys), rec in zip(seqs, records):
        assert xs.shape == (rec.steps, 8)
        assert ys.shape == (rec.steps, 2)
        # unscaling the position block recovers the sensed positions
        assert np.abs(xs[:, :3] * WORKSPACE.depth_max - rec.position).max() < 1e-12
        assert np.abs(np.linalg.norm(ys, axis=1) - 1.0).max() < 1e-12
        # the roll label encodes the clean simulator roll
        decoded = np.arctan2(ys[:, 0], ys[:, 1])
        wrapped = np.arctan2(np.sin(rec.roll_true), np.cos(rec.roll_true))
        assert np.abs(decoded - wrapped).max() < 1e-9


def test_episode_to_sequence_matches_per_step_build(tmp_path):
    root, manifest = small_dataset(tmp_path, n=2, seed=31)
    for rec in load_episodes(root, manifest):
        xs, ys = episode_to_sequence(rec)
        per_step_x = np.array([
            scale_features(p, eta, alpha)
            for p, eta, alpha in zip(rec.position, rec.heading, rec.base_angle)])
        per_step_y = np.array([roll_target(theta) for theta in rec.roll_true])
        assert np.array_equal(xs, per_step_x)
        assert np.array_equal(ys, per_step_y)


def test_training_sequences_respect_split(tmp_path):
    """Each side holds its labelled episodes in id order, the dataset's
    own split."""
    root, manifest = small_dataset(tmp_path, n=4, seed=23)
    train_seqs, val_seqs = to_training_sequences(root, manifest)
    for side, seqs in (("train", train_seqs), ("val", val_seqs)):
        steps = [m.steps for m, label in zip(manifest.episodes,
                                             manifest.labels) if label == side]
        assert [len(xs) for xs, _ in seqs] == steps
    assert (len(train_seqs), len(val_seqs)) == (3, 1)


def test_rigid_collection_has_zero_lag(tmp_path):
    root = tmp_path / "rigid"
    manifest = generate_dataset(n=2, medium=rigid_variant(GELATIN), seed=29,
                                root=root)
    rec = load_episodes(root, manifest)[0]
    assert np.abs(rec.base_angle - rec.roll_true).max() < 1e-12
