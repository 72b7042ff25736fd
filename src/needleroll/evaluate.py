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
The last three are views of the trial records alone. evaluate renders
them from the records it has just written, which decode from
trials/episodes.jsonl bit for bit (each column is stored as its float64
bytes), so `report`, re-rendering an existing directory from that file,
reproduces them byte for byte.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from needleroll.controller import ControllerParams
from needleroll.dataset import (
    DatasetError,
    read_record_line,
    record_from_logs,
    record_to_line,
    run_closed_loop,
)
from needleroll.ekf import EkfRollTracker
from needleroll.lstm import LstmModel, RollEstimator
from needleroll.plant import MediumParams, WorkspaceCone, sample_target
from needleroll.se3 import angular_error, decompose_roll, wrap_angle

# a name's position here is its tag in every trial seed (seed, tag, trial):
# reordering the names, or inserting one before the end, changes the noise
# stream of every evaluation trial
ESTIMATOR_NAMES = ("truth", "ekf", "lstm")
BIN_WIDTH = 0.05  # rad, of the angular-error histogram
DEFAULT_TRIALS = 30  # evaluate's trials per estimator

SUMMARY_COLUMNS = ["trial_id", "estimator", "medium", "seed", "outcome",
                   "steps", "targeting_error_mm", "mean_angular_error_rad",
                   "mean_roll_error_rad"]


def make_estimator(name: str, medium: MediumParams,
                   controller: ControllerParams,
                   model: LstmModel | None = None):
    """None steers on ground truth; otherwise a stateful estimate() object."""
    if name == "truth":
        return None
    if name == "ekf":
        return EkfRollTracker(medium, controller)
    if name == "lstm":
        if model is None:
            raise ValueError("the learned estimator needs a trained model")
        return RollEstimator(model)
    raise ValueError(f"unknown estimator {name!r}")


def run_trial(estimator_name: str, medium: MediumParams,
              controller: ControllerParams, target, seed,
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
    estimator = make_estimator(estimator_name, medium, controller, model)
    logs, _, outcome, final_error = run_closed_loop(
        medium, controller, target, rng, estimator)
    logs["roll_est"] = [decompose_roll(rows)[1] for rows in logs["R_est"]]
    logs["angular_error"] = list(map(angular_error, logs["R_est"],
                                     logs["R_true"]))
    return record_from_logs(trial_id, seed, medium, controller, target,
                            outcome, final_error, logs, estimator_name)


def _run_trial_task(args):
    return run_trial(*args)


def sample_targets(workspace: WorkspaceCone, seed: int, n: int):
    """The first n targets of the evaluation target stream of seed; every
    estimator of a batch steers to the same ones."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7467]))
    return [sample_target(workspace, rng) for _ in range(n)]


def run_batch(estimator_names, medium: MediumParams,
              controller: ControllerParams, workspace: WorkspaceCone,
              n_trials: int, seed: int, model: LstmModel | None = None,
              target=None, mapper=map):
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
    goals = (sample_targets(workspace, seed, n_trials) if target is None
             else [np.array(target, dtype=float) for _ in range(n_trials)])
    tasks = []
    trial_id = 0
    for k, goal in enumerate(goals):
        for name in estimator_names:
            trial_seed = (int(seed), ESTIMATOR_NAMES.index(name), k)
            tasks.append((name, medium, controller, goal, trial_seed,
                          model, trial_id))
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
    """(edges, counts) of angular errors; the bins step by BIN_WIDTH from 0,
    the last widened to reach pi."""
    n_bins = math.ceil(math.pi / BIN_WIDTH)
    edges = np.arange(n_bins + 1) * BIN_WIDTH
    edges[-1] = max(edges[-1], math.pi)
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts


# ---------------------------------------------------------------- persistence

def _fmt(x: float) -> str:
    return repr(float(x))


def report(records, out_dir: Path):
    """Persist the trial records and render the views derived from them.

    The records go to trials/episodes.jsonl in trial_id order.
    summaries.csv, histogram.csv and report.txt are rendered from those
    same records in memory: each decodes from its line bit for bit, so
    these are the bytes render_report writes from the file. Raises
    ValueError, before writing anything, unless the trial ids are 0 to
    n-1, each once, and every record carries the estimator columns: the
    set render_report accepts.
    """
    if not records:
        raise ValueError("nothing to report")
    trials = sorted(records, key=lambda r: r.episode_id)
    if [rec.episode_id for rec in trials] != list(range(len(trials))):
        raise ValueError("trial ids must be 0 to n-1, each once")
    if any(rec.estimator is None or rec.roll_est is None
           or rec.angular_error is None for rec in trials):
        raise ValueError("every trial needs its estimator, roll_est and "
                         "angular_error")
    out_dir = Path(out_dir)
    (out_dir / "trials").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "trials" / "episodes.jsonl", "w") as fh:
        for rec in trials:
            fh.write(record_to_line(rec) + "\n")
    _render_views(trials, out_dir)


def _read_trials(path: Path):
    """The trial records of path in trial_id order.

    Raises DatasetError naming the file when it holds no trials or its
    trial ids are not 0 to n-1 (naming the first one missing), and the
    line at fault when a line does not decode, repeats a trial_id, or lacks
    the estimator columns (a directory written before trial lines carried
    them).
    """
    by_id = {}
    with open(path, "rb") as fh:
        for idx, line in enumerate(fh):
            rec = read_record_line(path, idx, line)
            if rec.episode_id in by_id:
                raise DatasetError(
                    f"{path}: line {idx + 1} repeats trial {rec.episode_id}")
            if (rec.estimator is None or rec.roll_est is None
                    or rec.angular_error is None):
                raise DatasetError(
                    f"{path}: line {idx + 1} has no estimator/roll_est/"
                    f"angular_error columns; re-run evaluate to write them")
            by_id[rec.episode_id] = rec
    if not by_id:
        raise DatasetError(f"{path}: no trial records")
    for k in range(len(by_id)):
        if k not in by_id:
            raise DatasetError(f"{path}: trial {k} is missing; trial ids "
                               f"must be 0 to n-1, each once")
    return [by_id[k] for k in range(len(by_id))]


def render_report(out_dir: Path):
    """Render summaries.csv, histogram.csv and report.txt from
    trials/episodes.jsonl only."""
    out_dir = Path(out_dir)
    _render_views(_read_trials(out_dir / "trials" / "episodes.jsonl"), out_dir)


def _render_views(trials, out_dir: Path):
    """Write summaries.csv, histogram.csv and report.txt of trials, given
    in trial_id order: the per-group means and medians depend on the
    concatenation order."""
    roll_errors = [_roll_error(rec) for rec in trials]
    with open(out_dir / "trials" / "summaries.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for rec, roll_err in zip(trials, roll_errors):
            writer.writerow([
                rec.episode_id, rec.estimator, rec.medium.name,
                "-".join(str(v) for v in rec.seed), rec.outcome, rec.steps,
                _fmt(rec.final_error), _fmt(np.mean(rec.angular_error)),
                _fmt(np.mean(roll_err)),
            ])

    groups = sorted({(rec.medium.name, rec.estimator) for rec in trials})
    hist_rows = []
    lines = ["closed-loop steering report", ""]
    for medium, estimator in groups:
        members = [i for i, rec in enumerate(trials)
                   if (rec.medium.name, rec.estimator) == (medium, estimator)]
        group = [trials[i] for i in members]
        omega = np.concatenate([rec.angular_error for rec in group])
        edges, counts = histogram(omega)
        hist_rows += [[medium, estimator, _fmt(edges[k]), _fmt(edges[k + 1]),
                       int(counts[k])] for k in range(len(counts))]

        errors = np.array([rec.final_error for rec in group])
        arrived = sum(1 for rec in group if rec.outcome == "arrived")
        step_counts = np.array([rec.steps for rec in group])
        roll_err = np.concatenate([roll_errors[i] for i in members])
        lines += [
            f"[{medium} / {estimator}]",
            f"  trials: {len(group)} ({arrived} arrived), "
            f"mean steps {np.mean(step_counts):.1f}",
            f"  targeting error: mean {np.mean(errors):.4f} mm, "
            f"median {np.median(errors):.4f} mm, max {np.max(errors):.4f} mm",
            f"  per-step angular error: mean {np.mean(omega):.4f} rad, "
            f"median {np.median(omega):.4f} rad",
            f"  per-step roll error:    mean {np.mean(roll_err):.4f} rad",
            "",
        ]
    with open(out_dir / "histogram.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["medium", "estimator", "bin_lo", "bin_hi", "count"])
        writer.writerows(hist_rows)
    (out_dir / "report.txt").write_text("\n".join(lines))


def _roll_error(record):
    """Per-step |wrap(roll_est - roll_true)| of a trial record, rad."""
    return np.abs([wrap_angle(d)
                   for d in (record.roll_est - record.roll_true).tolist()])


def summarize(records, estimator: str):
    """(mean targeting error, mean per-step angular error) for one estimator."""
    group = [rec for rec in records if rec.estimator == estimator]
    if not group:
        raise ValueError(f"no trials for estimator {estimator!r}")
    err = float(np.mean([rec.final_error for rec in group]))
    steps = np.array([rec.steps for rec in group], dtype=float)
    omega = np.array([np.mean(rec.angular_error) for rec in group])
    return err, float(np.sum(omega * steps) / np.sum(steps))
