"""Closed-loop estimator comparison harness.

Runs steering trials with interchangeable tip-state estimators (true pose,
Kalman filter, learned roll tracker), records per-step agreement between
the estimated and true tip rotation, and renders targeting-error and
angular-error tables. Trials are paired: every estimator steers to the same
target sequence, with its own sensor-noise stream.

Artifact layout under an output directory:
    trials/episodes.jsonl   one line per trial: the per-step record, with
                            the estimator's name, the estimated roll
                            (roll_est) and the angular error between
                            estimated and true rotation
    trials/summaries.csv    one row per trial
    histogram.csv           angular-error histogram per estimator and medium
    report.txt              aggregate statistics
The last three are views of the trial file alone, and group_stats owns
every number of histogram.csv and report.txt. render_report is their one
renderer: report writes the trial file through schema.replacing, then
renders the views by reading it back, as the `report` command does for
an existing directory, so a directory holding only the trial file
reproduces every view byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from needleroll.dataset import (
    ESTIMATOR_COLUMNS,
    DatasetError,
    read_records,
    record_from_logs,
    record_to_line,
    run_closed_loop,
)
from needleroll.ekf import EkfRollTracker
from needleroll.lstm import LstmModel, RollEstimator
from needleroll.plant import WORKSPACE, MediumParams, sample_target
from needleroll.schema import replacing
from needleroll.se3 import angular_error, decompose_roll

# a name's position here is its tag in every trial seed (seed, tag, trial):
# reordering the names, or inserting one before the end, changes the noise
# stream of every evaluation trial
ESTIMATOR_NAMES = ("truth", "ekf", "lstm")
BIN_WIDTH = 0.05  # rad, of the angular-error histogram
# its bin edges step by BIN_WIDTH from 0, the last widened to reach pi
BIN_EDGES = np.arange(math.ceil(math.pi / BIN_WIDTH) + 1) * BIN_WIDTH
BIN_EDGES[-1] = max(BIN_EDGES[-1], math.pi)
BIN_EDGES.flags.writeable = False  # histogram hands this array out
DEFAULT_TRIALS = 30  # evaluate's trials per estimator

SUMMARY_COLUMNS = ["trial_id", "estimator", "medium", "seed", "outcome",
                   "steps", "targeting_error_mm", "mean_angular_error_rad",
                   "mean_roll_error_rad"]


def make_estimator(name: str, medium: MediumParams,
                   model: LstmModel | None = None):
    """None steers on ground truth; otherwise a stateful estimate() object."""
    if name == "truth":
        return None
    if name == "ekf":
        return EkfRollTracker(medium)
    if name == "lstm":
        if model is None:
            raise ValueError("the learned estimator needs a trained model")
        return RollEstimator(model)
    raise ValueError(f"unknown estimator {name!r}")


def run_trial(estimator_name: str, medium: MediumParams, target, seed,
              model: LstmModel | None = None, trial_id: int = 0):
    """One closed-loop insertion under the named estimator.

    Returns the trial's EpisodeRecord, named after the estimator. It
    carries the wrapped estimated roll (roll_est) and the geodesic angle
    between the estimated and true rotation (angular_error) at every step.
    The targeting error (final_error) is measured on the true tip, whatever
    the estimator believed.
    """
    seed = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
    estimator = make_estimator(estimator_name, medium, model)
    logs, _, outcome, final_error = run_closed_loop(medium, target, rng,
                                                    estimator)
    logs["roll_est"] = [decompose_roll(rows)[1] for rows in logs["R_est"]]
    logs["angular_error"] = list(map(angular_error, logs["R_est"],
                                     logs["R_true"]))
    return record_from_logs(trial_id, seed, medium, target, outcome,
                            final_error, logs, estimator_name)


def _run_trial_task(args):
    return run_trial(*args)


def sample_targets(seed: int, n: int):
    """The first n WORKSPACE targets of the evaluation target stream of
    seed; every estimator of a batch steers to the same ones."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7467]))
    return [sample_target(WORKSPACE, rng) for _ in range(n)]


def run_batch(estimator_names, medium: MediumParams, n_trials: int,
              seed: int, model: LstmModel | None = None, target=None,
              mapper=map):
    """Paired trials: each estimator steers to the same sampled targets, or
    every trial to `target` when one is given.

    Per-trial noise streams depend only on (seed, estimator, trial index),
    so results are identical under any order-preserving parallel mapper.
    Returns the trial records in trial_id order, 0 to n-1; report persists
    them.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    check_estimator_names(estimator_names)
    goals = (sample_targets(seed, n_trials) if target is None
             else [np.array(target, dtype=float) for _ in range(n_trials)])
    tasks = []
    trial_id = 0
    for k, goal in enumerate(goals):
        for name in estimator_names:
            trial_seed = (int(seed), ESTIMATOR_NAMES.index(name), k)
            tasks.append((name, medium, goal, trial_seed, model, trial_id))
            trial_id += 1
    return list(mapper(_run_trial_task, tasks))


# ------------------------------------------------------------------ analysis

def check_estimator_names(names):
    """Reject an empty list, an unknown name and a repeated one (it reruns
    the same seeds)."""
    if not names:
        raise ValueError("estimators must name at least one estimator")
    for k, name in enumerate(names):
        if name not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {name!r}")
        if name in names[:k]:
            raise ValueError(f"estimator {name!r} is listed twice")


def histogram(values):
    """(BIN_EDGES, counts) of angular errors."""
    return BIN_EDGES, np.histogram(values, bins=BIN_EDGES)[0]


@dataclass(frozen=True)
class GroupStats:
    """Every number report.txt and histogram.csv print of one group."""

    medium: str
    estimator: str
    trials: int
    arrived: int
    mean_steps: float
    error_mean: float  # mm, targeting error
    error_median: float
    error_max: float
    angular_mean: float  # rad, over every step of the group
    angular_median: float
    roll_mean: float  # rad, per-step |wrapped roll error|
    histogram: tuple[int, ...]  # angular errors per BIN_EDGES bin


def group_stats(records) -> list[GroupStats]:
    """The GroupStats of each (medium, estimator) of records, sorted by
    medium, then estimator: the one place a group statistic is computed.
    Per-step statistics run over the group's steps concatenated in
    trial_id order, which sets their float bits."""
    trials = sorted(records, key=lambda r: r.episode_id)
    stats = []
    for medium, estimator in sorted({(r.medium.name, r.estimator)
                                     for r in trials}):
        group = [r for r in trials
                 if (r.medium.name, r.estimator) == (medium, estimator)]
        errors = np.array([r.final_error for r in group])
        omega = np.concatenate([r.angular_error for r in group])
        stats.append(GroupStats(
            medium=medium, estimator=estimator, trials=len(group),
            arrived=sum(r.outcome == "arrived" for r in group),
            mean_steps=float(np.mean([r.steps for r in group])),
            error_mean=float(np.mean(errors)),
            error_median=float(np.median(errors)),
            error_max=float(np.max(errors)),
            angular_mean=float(np.mean(omega)),
            angular_median=float(np.median(omega)),
            roll_mean=float(np.mean(np.concatenate(
                [_roll_error(r) for r in group]))),
            histogram=tuple(map(int, histogram(omega)[1]))))
    return stats


# ---------------------------------------------------------------- persistence

def _fmt(x: float) -> str:
    return repr(float(x))


def report(records, out_dir: Path) -> list[GroupStats]:
    """Write the trial records to trials/episodes.jsonl in trial_id order
    and return render_report(out_dir): the records obey the file's rules
    as read back, and fail after the write as a DatasetError if not."""
    with replacing(Path(out_dir) / "trials" / "episodes.jsonl") as fh:
        for rec in sorted(records, key=lambda r: r.episode_id):
            fh.write(record_to_line(rec) + "\n")
    return render_report(out_dir)


def render_report(out_dir: Path) -> list[GroupStats]:
    """Render trials/summaries.csv, one row per trial, and histogram.csv
    and report.txt, which format the returned group_stats, from
    trials/episodes.jsonl alone. A DatasetError names the file that
    read_records rejects or that holds no trials, or the line that lacks
    the estimator columns."""
    out_dir = Path(out_dir)
    path = out_dir / "trials" / "episodes.jsonl"
    trials = read_records(path)
    if not trials:
        raise DatasetError(f"{path}: no trial records")
    for k, rec in enumerate(trials):
        if any(getattr(rec, name) is None
               for name in ("estimator", *ESTIMATOR_COLUMNS)):
            raise DatasetError(
                f"{path}: line {k + 1} has no estimator/roll_est/"
                f"angular_error columns: it is a dataset episode line, "
                f"not a trial line")
    with replacing(out_dir / "trials" / "summaries.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for rec in trials:
            writer.writerow([
                rec.episode_id, rec.estimator, rec.medium.name,
                "-".join(str(v) for v in rec.seed), rec.outcome, rec.steps,
                _fmt(rec.final_error), _fmt(np.mean(rec.angular_error)),
                _fmt(np.mean(_roll_error(rec))),
            ])

    stats = group_stats(trials)
    with replacing(out_dir / "histogram.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["medium", "estimator", "bin_lo", "bin_hi", "count"])
        writer.writerows([s.medium, s.estimator, _fmt(lo), _fmt(hi), count]
                         for s in stats for lo, hi, count
                         in zip(BIN_EDGES[:-1], BIN_EDGES[1:], s.histogram))
    lines = ["closed-loop steering report", ""]
    for s in stats:
        lines += [
            f"[{s.medium} / {s.estimator}]",
            f"  trials: {s.trials} ({s.arrived} arrived), "
            f"mean steps {s.mean_steps:.1f}",
            f"  targeting error: mean {s.error_mean:.4f} mm, "
            f"median {s.error_median:.4f} mm, max {s.error_max:.4f} mm",
            f"  per-step angular error: mean {s.angular_mean:.4f} rad, "
            f"median {s.angular_median:.4f} rad",
            f"  per-step roll error:    mean {s.roll_mean:.4f} rad",
            "",
        ]
    with replacing(out_dir / "report.txt") as fh:
        fh.write("\n".join(lines))
    return stats


def _roll_error(record):
    """Per-step |wrap(roll_est - roll_true)| of a trial record, rad: the
    bits of abs(se3.wrap_angle), whose -pi -> pi step abs makes moot."""
    d = record.roll_est - record.roll_true
    return np.abs((d + math.pi) % (2.0 * math.pi) - math.pi)
