"""Insertion dataset generation, persistence and the train/val split.

Collection protocol: closed-loop insertions steered on the true tip pose
(standing in for a tip-embedded 6-DOF sensor), each to a freshly sampled
workspace target. Episodes that miss by more than the collection threshold
are thrown away and regenerated with a fresh target, so the dataset only
contains successful steers. Recorded observations keep the sensor noise;
the roll label is the clean simulator state.

Every episode is steered by controller.CONTROLLER to a target drawn from
plant.WORKSPACE: both are constants, so no function here takes them.
Storage is one JSON Lines file per dataset (line k holds episode k, as
read_records requires of every line file) plus a manifest of its
generation (the medium and the seed, what a generate run sets) and each
episode's steps and final error. The train/val split and the config hash
are derived from generation, z_max is WORKSPACE.depth_max, and
load_episodes checks each line against generation and the two constants.
A line stores each fact once: every per-step column is as long as
base_angle, step k is at time k / controller.rate, and the commanded
insertion speed is the controller's.

The line format, owned by needleroll.schema: a line is encode's compact
sorted JSON text of the record, where each per-step column (STEP_COLUMNS,
ESTIMATOR_COLUMNS, the record's Column fields) is one strict-base64 string
of its little-endian float64 bytes, row-major, so every value round-trips
bit for bit; every other field, target included, is JSON text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from needleroll.controller import (
    CONTROLLER,
    Arrived,
    ControllerParams,
    control,
    targeting_error,
)
from needleroll.plant import (
    HEADING_NORM_TOLERANCE,
    WORKSPACE,
    MediumParams,
    initial_state,
    sample_target,
    sense,
    step,
)
from needleroll.schema import Column, decode, encode, replacing, save_json
from needleroll.se3 import floats3

DATASET_SCHEMA_VERSION = 3  # of episode and trial lines
MANIFEST_SCHEMA_VERSION = 6
MANIFEST_FILENAME = "manifest.json"

COLLECTION_ERROR_LIMIT = 1.0  # mm, regenerate episodes that miss by more
RETRY_BUDGET = 5  # attempts per episode slot


class DatasetError(RuntimeError):
    """Dataset files unreadable or inconsistent with their manifest."""


class GenerationStalled(RuntimeError):
    """Retry budget exhausted: the controller/plant pairing is mis-tuned."""


DEPTH_CAP = 80.0  # mm, insertion depth at which a closed loop gives up
DEFAULT_EPISODES = 70  # generate's episode count
TRAIN_FRACTION = 6.0 / 7.0  # share of a dataset's episodes split into train

# EpisodeRecord's per-step arrays; run_closed_loop records a column of
# each, plus the true and the estimated tip rotation. Step k is taken at
# time k / controller.rate, so the time axis is no column
STEP_COLUMNS = ("position", "heading", "base_angle", "roll_true",
                "rotation_speed")
# per-step estimator columns that only evaluation trials carry; a record
# without them (every generated episode) is written without the keys
ESTIMATOR_COLUMNS = ("roll_est", "angular_error")


def run_closed_loop(medium: MediumParams, target, rng, estimator=None):
    """Drive one insertion to the target; the canonical execution loop.

    Each tick, on floats: sense, estimate, decide under CONTROLLER,
    advance. `estimator` is any object with estimate(meas, base_angle) ->
    (rows, p), float rows and floats; None steers on the plant state's.
    Stops on arrival or at DEPTH_CAP.

    Returns (logs, final_state, outcome, final_error). `logs` maps each
    STEP_COLUMNS name, "R_true" and "R_est" to a list with one entry per
    control period, taken at the measurement instant (before the plant
    advances): the sensed position and heading, the base angle and true
    tip roll, the commanded rotation speed, and the rows of the true and
    estimated rotations. The final error is the true tip-to-target
    distance, whatever the estimator believed.
    """
    dt = 1.0 / CONTROLLER.rate
    goal = floats3(target)
    state = initial_state()
    logs = {name: [] for name in (*STEP_COLUMNS, "R_true", "R_est")}
    outcome = "depth_capped"
    while state.depth < DEPTH_CAP:
        meas = sense(state, medium, rng)
        if estimator is None:
            rows, p = state.rows, state.p
        else:
            rows, p = estimator.estimate(meas, state.base_angle)
        decision = control(rows, p, goal, CONTROLLER)
        if isinstance(decision, Arrived):
            outcome = "arrived"
            break
        logs["position"].append(meas.position)
        logs["heading"].append(meas.heading)
        logs["base_angle"].append(state.base_angle)
        logs["roll_true"].append(state.tip_roll)
        logs["rotation_speed"].append(decision.rotation_speed)
        logs["R_true"].append(state.rows)
        logs["R_est"].append(rows)
        state = step(state, decision, medium, dt)
    final_error = targeting_error(state.p, target)
    return logs, state, outcome, final_error


@dataclass(frozen=True, eq=False)
class EpisodeRecord:
    """One persisted insertion: per-timestep sensed arrays, the commanded
    base angle, the true roll label, and the episode's context."""

    episode_id: int
    seed: tuple[int, ...]
    medium: MediumParams
    controller: ControllerParams
    target: tuple[float, float, float]  # mm
    outcome: str
    final_error: float  # mm
    position: Column  # (T, 3) sensed, mm
    heading: Column  # (T, 3) sensed, unit
    base_angle: Column  # (T,) rad, unwrapped
    roll_true: Column  # (T,) rad, unwrapped
    rotation_speed: Column  # (T,) rad/s
    roll_est: Column | None = None  # (T,) rad, wrapped estimated roll
    angular_error: Column | None = None  # (T,) rad, estimated vs true R
    estimator: str | None = None  # who steered an evaluation trial

    @property
    def steps(self) -> int:
        return len(self.base_angle)

    def validate(self):
        n = self.steps
        if n < 1:
            raise ValueError("episode must contain at least one timestep")
        if len(self.target) != 3:
            raise ValueError("target must hold three numbers")
        for name in ("position", "heading"):
            if getattr(self, name).shape != (n, 3):
                raise ValueError(f"{name} must be (steps, 3)")
        estimated = [name for name in ESTIMATOR_COLUMNS
                     if getattr(self, name) is not None]
        for name in ("roll_true", "rotation_speed", *estimated):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must match the timestep count")
        # a line can hold NaN and the infinities (json reads them, a column
        # holds any bits), which would surface only as a non-finite loss
        for name in ("target", *STEP_COLUMNS, *estimated):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        # the bound plant.require_valid_measurement holds each reading to
        norms = np.sqrt(np.einsum("ij,ij->i", self.heading, self.heading))
        if not (np.abs(norms - 1.0) <= HEADING_NORM_TOLERANCE).all():
            raise ValueError("heading rows must be unit vectors")
        if self.angular_error is not None and not (
                self.angular_error.min() >= 0.0
                and self.angular_error.max() <= math.pi + 1e-12):
            raise ValueError("angular errors must lie in [0, pi]")
        if not 0.0 <= self.final_error < math.inf:
            raise ValueError("final error must be finite and nonnegative")
        if self.outcome not in ("arrived", "depth_capped"):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.estimator is not None and not isinstance(self.estimator, str):
            raise ValueError("estimator must be a string")


def _stack_rows3(rows) -> np.ndarray:
    """np.array(rows) for rows of three floats, without per-row parsing."""
    return np.fromiter(itertools.chain.from_iterable(rows), float,
                       3 * len(rows)).reshape(-1, 3)


def record_from_logs(episode_id: int, seed, medium: MediumParams, target,
                     outcome: str, final_error: float, logs,
                     estimator: str | None = None) -> EpisodeRecord:
    rec = EpisodeRecord(
        episode_id=episode_id,
        seed=tuple(int(s) for s in seed),
        medium=medium,
        controller=CONTROLLER,
        target=tuple(map(float, target)),
        outcome=outcome,
        final_error=float(final_error),
        **{name: (_stack_rows3(logs[name]) if name in ("position", "heading")
                  else np.array(logs[name]))
           for name in (*STEP_COLUMNS, *ESTIMATOR_COLUMNS) if name in logs},
        estimator=estimator,
    )
    rec.validate()
    return rec


def record_to_line(rec: EpisodeRecord) -> str:
    """One JSON object holding every field of rec that is not None, in the
    line format of the module docstring."""
    return encode(rec, DATASET_SCHEMA_VERSION)


def record_from_line(line: str) -> EpisodeRecord:
    rec = decode(line, EpisodeRecord, DATASET_SCHEMA_VERSION, "episode")
    rec = dataclasses.replace(rec, position=rec.position.reshape(-1, 3),
                              heading=rec.heading.reshape(-1, 3))
    rec.validate()
    return rec


# ------------------------------------------------------------------ manifest

@dataclass(frozen=True)
class Generation:
    """What a generate run sets: the medium, which checks its ranges, and
    the seed."""

    medium: MediumParams
    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"generation seed {self.seed} is negative")


@dataclass(frozen=True)
class EpisodeMeta:
    episode_id: int
    line: int  # zero-based line index into the episodes file
    steps: int
    final_error: float


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset stores: its generation and an entry per episode."""

    episodes_file = "episodes.jsonl"  # unannotated: a constant, no field
    generation: Generation
    episodes: tuple[EpisodeMeta, ...]

    def __post_init__(self):
        split_labels(len(self.episodes), self.generation.seed)  # raises below 2
        for k, m in enumerate(self.episodes):
            # read_records finds episode k on line k, and nowhere else
            if m.episode_id != k or m.line != k:
                raise ValueError(f"entry {k} must describe episode {k} on "
                                 f"line {k}")

    @property
    def z_max(self) -> float:
        """The position feature scale: no sampled target lies deeper."""
        return float(WORKSPACE.depth_max)

    @property
    def labels(self) -> tuple[str, ...]:
        """Episode k's train/val label."""
        return split_labels(len(self.episodes), self.generation.seed)


def config_hash(generation: Generation) -> str:
    blob = json.dumps(dataclasses.asdict(generation), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_manifest(root: Path) -> DatasetManifest:
    """The manifest under root; any fault is a DatasetError naming it."""
    path = Path(root) / MANIFEST_FILENAME
    try:
        return decode(path.read_text(), DatasetManifest,
                      MANIFEST_SCHEMA_VERSION, "manifest")
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def read_records(path: Path) -> list[EpisodeRecord]:
    """Every record of a dataset or trial file, under the one rule of both:
    line k (zero-based) holds the record with id k and ends in a newline.

    Each line is decoded first, then its newline and its id are checked.
    Any failure, a byte that is not UTF-8 too, is a DatasetError naming
    path and the line.
    """
    records = []
    with open(path, "rb") as fh:
        for k, line in enumerate(fh):
            where = f"{path}: line {k + 1}"
            try:
                rec = record_from_line(line.decode("utf-8"))
            # no JSON, or no UTF-8 or no episode: wrong type, missing key...
            except ValueError as exc:
                what = ("valid JSON" if isinstance(exc, json.JSONDecodeError)
                        else "a valid episode")
                raise DatasetError(f"{where} is not {what} ({exc})") from exc
            if not line.endswith(b"\n"):
                raise DatasetError(f"{where} is truncated")
            if rec.episode_id != k:
                raise DatasetError(
                    f"{where} holds record {rec.episode_id}, not record {k}")
            records.append(rec)
    return records


def load_episodes(root: Path, manifest: DatasetManifest) -> list[EpisodeRecord]:
    """The manifest's episodes in id order.

    Raises DatasetError unless the episodes file holds exactly the
    manifest's episodes: line k holds episode k, as read_records requires,
    with entry k's steps and final error, generation's medium, CONTROLLER,
    a seed (generation seed, k, attempt) as _collect_episode draws it, and
    a target depth within WORKSPACE's.
    """
    path = Path(root) / manifest.episodes_file
    records = read_records(path)
    if len(records) != len(manifest.episodes):
        raise DatasetError(
            f"{path}: {len(records)} episodes, the manifest lists "
            f"{len(manifest.episodes)}")
    g = manifest.generation
    for k, (rec, m) in enumerate(zip(records, manifest.episodes)):
        where = f"{path}: line {k + 1}"
        if rec.medium != g.medium:
            raise DatasetError(f"{where}: medium is not generation's")
        if rec.controller != CONTROLLER:
            raise DatasetError(f"{where}: controller is not CONTROLLER")
        if rec.seed not in [(g.seed, k, a) for a in range(RETRY_BUDGET)]:
            raise DatasetError(f"{where}: seed is not generation's")
        if (rec.steps, rec.final_error) != (m.steps, m.final_error):
            raise DatasetError(f"{where}: steps or final error is not "
                               f"entry {k}'s")
        if not WORKSPACE.depth_min <= rec.target[2] <= WORKSPACE.depth_max:
            raise DatasetError(f"{where}: target depth is outside WORKSPACE")
    return records


# ---------------------------------------------------------------- generation

def _collect_episode(args):
    """Generate and encode one accepted episode for a slot; retries fresh
    targets.

    Returns (line, meta): the episode's JSON line, without its newline,
    and its EpisodeMeta (it is line `slot`). Top-level function so process
    pools can map over slots, each worker building and encoding its own
    episodes; the episode rng depends only on (root seed, slot, attempt),
    making results identical under any parallelism.
    """
    slot, root_seed, medium = args
    for attempt in range(RETRY_BUDGET):
        seed = (int(root_seed), int(slot), int(attempt))
        rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
        target = sample_target(WORKSPACE, rng)
        logs, _, outcome, final_error = run_closed_loop(medium, target, rng)
        if outcome == "arrived" and final_error < COLLECTION_ERROR_LIMIT:
            rec = record_from_logs(slot, seed, medium, target, outcome,
                                   final_error, logs)
            del logs  # peak memory holds the tick logs or the line, not both
            return record_to_line(rec), EpisodeMeta(
                slot, slot, rec.steps, rec.final_error)
    raise GenerationStalled(
        f"episode slot {slot}: no sub-{COLLECTION_ERROR_LIMIT} mm steer in "
        f"{RETRY_BUDGET} attempts")


def split_labels(n: int, seed: int) -> tuple[str, ...]:
    """The seeded train/val label of each of n episodes: TRAIN_FRACTION of
    them, rounded, go to train, but at least one goes to val."""
    if n < 2:
        raise ValueError("need at least two episodes to split")
    n_train = min(round(n * TRAIN_FRACTION), n - 1)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5350]))
    train = set(rng.permutation(n)[:n_train].tolist())
    return tuple("train" if k in train else "val" for k in range(n))


def generate_dataset(n: int, medium: MediumParams, seed: int, root: Path,
                     mapper=map) -> DatasetManifest:
    """Collect n accepted insertions in one medium and persist them under
    root; returns the manifest, written once after the last line.

    An n below 2 or a negative seed raises ValueError before root is
    created. `mapper` lets a caller swap in an order-preserving parallel
    map: its workers build and encode each episode's line, and this process
    writes the lines in slot order as they arrive, through
    schema.replacing, so a failed run leaves a dataset already under root
    as it was.
    """
    generation = Generation(medium, int(seed))
    split_labels(n, seed)  # raises below two episodes
    root = Path(root)
    args = [(slot, seed, medium) for slot in range(n)]
    metas = []
    with replacing(root / DatasetManifest.episodes_file) as fh:
        for line, meta in mapper(_collect_episode, args):
            metas.append(meta)
            fh.write(line + "\n")
    manifest = DatasetManifest(generation, tuple(metas))
    save_json(root / MANIFEST_FILENAME, manifest, MANIFEST_SCHEMA_VERSION)
    return manifest


# ---------------------------------------------------------- training tensors

def episode_to_sequence(rec: EpisodeRecord, z_max: float):
    """(features, targets) arrays for one episode, temporal order kept.

    Feature row k is lstm.scale_features at step k bit for bit, and target
    row k is (sin, cos) of roll_true; hence math.sin/math.cos throughout.
    """
    if z_max <= 0.0:
        raise ValueError("z_max must be positive")

    def sin_cos(angles):
        angles = angles.tolist()
        return [np.fromiter(map(fn, angles), float, len(angles))
                for fn in (math.sin, math.cos)]

    xs = np.column_stack([rec.position / z_max, rec.heading,
                          *sin_cos(rec.base_angle)])
    return xs, np.column_stack(sin_cos(rec.roll_true))


def to_training_sequences(root: Path, manifest: DatasetManifest):
    """(train, val) lists of per-episode (features, targets) pairs in id
    order, from one read of the episodes file."""
    splits = {"train": [], "val": []}
    for rec, label in zip(load_episodes(root, manifest), manifest.labels):
        splits[label].append(episode_to_sequence(rec, manifest.z_max))
    return splits["train"], splits["val"]
