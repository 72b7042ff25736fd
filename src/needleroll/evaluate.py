"""Closed-loop estimator comparison harness.

Runs steering trials with interchangeable tip-state estimators (true pose,
Kalman filter, learned roll tracker), records per-step agreement between
the estimated and true tip rotation, and renders targeting-error and
angular-error tables. Trials are paired: every estimator steers to the same
target sequence, with its own sensor-noise stream.

Artifact layout under an output directory:
    trials/summaries.csv    one row per trial
    trials/episodes.jsonl   one line per trial: the per-step record, with
                            the estimated roll (roll_est) and the angular
                            error between estimated and true rotation
    histogram.csv           angular-error histogram per estimator and medium
    report.txt              aggregate statistics
report.txt and histogram.csv are derived from the two trials/ files alone,
so re-rendering an existing directory reproduces them byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from needleroll.controller import ControllerParams
from needleroll.dataset import (
    DEPTH_CAP,
    DatasetError,
    read_record_line,
    record_from_logs,
    record_to_line,
    run_closed_loop,
)
from needleroll.ekf import EkfRollTracker
from needleroll.lstm import LstmModel, RollEstimator
from needleroll.plant import MediumParams, WorkspaceCone, sample_target
from needleroll.se3 import angular_error, decompose_roll

# a name's position here is its tag in every trial seed (seed, tag, trial):
# reordering the names, or inserting one before the end, changes the noise
# stream of every evaluation trial
ESTIMATOR_NAMES = ("truth", "ekf", "lstm")
DEFAULT_BIN_WIDTH = 0.05  # rad
DEFAULT_TRIALS = 30  # evaluate's trials per estimator

SUMMARY_COLUMNS = ["trial_id", "estimator", "medium", "seed", "outcome",
                   "steps", "targeting_error_mm", "mean_angular_error_rad",
                   "mean_roll_error_rad"]


@dataclass(frozen=True)
class TrialSummary:
    trial_id: int
    estimator: str
    medium: str
    seed: tuple[int, ...]
    outcome: str
    steps: int
    targeting_error: float  # mm, against the true tip position
    mean_angular_error: float  # rad, per-step mean
    mean_roll_error: float  # rad, per-step mean of |wrapped difference|


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
              model: LstmModel | None = None, trial_id: int = 0,
              depth_cap: float = DEPTH_CAP):
    """One closed-loop insertion under the named estimator.

    Returns (EpisodeRecord, TrialSummary). The record carries the wrapped
    estimated roll (roll_est) and the geodesic angle between the estimated
    and true rotation (angular_error) at every step. The targeting error is
    measured on the true tip, whatever the estimator believed.
    """
    seed = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
    estimator = make_estimator(estimator_name, medium, controller, model)
    logs, _, outcome, final_error = run_closed_loop(
        medium, controller, target, rng, estimator, depth_cap)
    logs["roll_est"] = [decompose_roll(R)[1] for R in logs["R_est"]]
    logs["angular_error"] = [angular_error(R_true, R_est) for R_true, R_est
                             in zip(logs["R_true"], logs["R_est"])]
    record = record_from_logs(trial_id, seed, medium, controller, target,
                              outcome, final_error, logs)
    summary = TrialSummary(
        trial_id=trial_id, estimator=estimator_name, medium=medium.name,
        seed=seed, outcome=outcome, steps=record.steps,
        targeting_error=final_error,
        mean_angular_error=float(np.mean(record.angular_error)),
        mean_roll_error=float(np.mean(_roll_error(record))),
    )
    return record, summary


def _run_trial_task(args):
    return run_trial(*args)


def run_batch(estimator_names, medium: MediumParams,
              controller: ControllerParams, workspace: WorkspaceCone,
              n_trials: int, seed: int, model: LstmModel | None = None,
              out_dir: Path | None = None, depth_cap: float = DEPTH_CAP,
              bin_width: float = DEFAULT_BIN_WIDTH, mapper=map):
    """Paired trials: each estimator steers to the same sampled targets.

    Per-trial noise streams depend only on (seed, estimator, trial index),
    so results are identical under any order-preserving parallel mapper.
    Returns (records, summaries); persists and renders the report when
    out_dir is given.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    for name in estimator_names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {name!r}")
    target_rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), 0x7467]))
    targets = [sample_target(workspace, target_rng) for _ in range(n_trials)]
    tasks = []
    trial_id = 0
    for k, target in enumerate(targets):
        for name in estimator_names:
            trial_seed = (int(seed), ESTIMATOR_NAMES.index(name), k)
            tasks.append((name, medium, controller, target, trial_seed,
                          model, trial_id, depth_cap))
            trial_id += 1
    results = list(mapper(_run_trial_task, tasks))
    records = [r for r, _ in results]
    summaries = [s for _, s in results]
    if out_dir is not None:
        report(records, summaries, out_dir, bin_width)
    return records, summaries


# ------------------------------------------------------------------ analysis

def check_bin_width(bin_width: float):
    if not 0.0 < bin_width < math.inf:  # NaN fails
        raise ValueError("bin width must be finite and positive")


def histogram(values, bin_width: float = DEFAULT_BIN_WIDTH):
    """(edges, counts) of angular errors; the bins step by bin_width from 0,
    the last widened to reach pi."""
    check_bin_width(bin_width)
    n_bins = max(1, math.ceil(math.pi / bin_width))
    edges = np.arange(n_bins + 1) * bin_width
    edges[-1] = max(edges[-1], math.pi)
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts


# ---------------------------------------------------------------- persistence

def _fmt(x: float) -> str:
    return repr(float(x))


def report(records, summaries, out_dir: Path,
           bin_width: float = DEFAULT_BIN_WIDTH):
    """Persist trial artifacts and render the aggregate report.

    Raw values go to CSV and JSON Lines with full-precision repr floats;
    report.txt and histogram.csv are then re-derived from those files only
    (see render_report), keeping regeneration byte-identical.
    """
    if not summaries:
        raise ValueError("nothing to report")
    out_dir = Path(out_dir)
    (out_dir / "trials").mkdir(parents=True, exist_ok=True)

    with open(out_dir / "trials" / "summaries.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for s in sorted(summaries, key=lambda s: s.trial_id):
            writer.writerow([
                s.trial_id, s.estimator, s.medium,
                "-".join(str(v) for v in s.seed), s.outcome, s.steps,
                _fmt(s.targeting_error), _fmt(s.mean_angular_error),
                _fmt(s.mean_roll_error),
            ])

    with open(out_dir / "trials" / "episodes.jsonl", "w") as fh:
        for rec in sorted(records, key=lambda r: r.episode_id):
            fh.write(record_to_line(rec) + "\n")

    render_report(out_dir, bin_width)


def _read_trials(out_dir: Path, rows):
    """The trial record behind each summaries.csv row, in row order.

    Raises DatasetError naming the file and line at fault when a row has no
    record, the step counts disagree, or a record lacks the estimator
    columns (a directory written before trial lines carried them).
    """
    path = out_dir / "trials" / "episodes.jsonl"
    by_id = {}
    with open(path) as fh:
        for idx, line in enumerate(fh):
            rec = read_record_line(path, idx, line)
            by_id[rec.episode_id] = (idx, rec)
    records = []
    for k, row in enumerate(rows):
        if int(row["trial_id"]) not in by_id:
            raise DatasetError(
                f"{path.parent / 'summaries.csv'}: line {k + 2} lists trial "
                f"{row['trial_id']}, which has no record in {path}")
        idx, rec = by_id[int(row["trial_id"])]
        if rec.steps != int(row["steps"]):
            raise DatasetError(
                f"{path}: line {idx + 1} holds {rec.steps} steps, "
                f"summaries.csv lists {row['steps']}")
        if rec.roll_est is None or rec.angular_error is None:
            raise DatasetError(
                f"{path}: line {idx + 1} has no roll_est/angular_error "
                f"columns; re-run evaluate to write them")
        records.append(rec)
    return records


def render_report(out_dir: Path, bin_width: float = DEFAULT_BIN_WIDTH):
    """Rebuild histogram.csv and report.txt from the trials/ files only."""
    out_dir = Path(out_dir)
    with open(out_dir / "trials" / "summaries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no summary rows under {out_dir}")
    # each group's steps in trial_id order: the means and medians below
    # depend on the concatenation order
    trials = sorted(zip(rows, _read_trials(out_dir, rows)),
                    key=lambda trial: int(trial[0]["trial_id"]))

    groups = sorted({(r["medium"], r["estimator"]) for r in rows})
    hist_rows = []
    lines = ["closed-loop steering report", ""]
    for medium, estimator in groups:
        group = [(r, rec) for r, rec in trials
                 if r["medium"] == medium and r["estimator"] == estimator]
        omega = np.concatenate([rec.angular_error for _, rec in group])
        edges, counts = histogram(omega, bin_width)
        hist_rows += [[medium, estimator, _fmt(edges[k]), _fmt(edges[k + 1]),
                       int(counts[k])] for k in range(len(counts))]

        errors = np.array([float(r["targeting_error_mm"]) for r, _ in group])
        arrived = sum(1 for r, _ in group if r["outcome"] == "arrived")
        step_counts = np.array([int(r["steps"]) for r, _ in group])
        roll_err = np.concatenate([_roll_error(rec) for _, rec in group])
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


def _wrap_array(angles):
    """wrap_angle over an array: the same remainder, -pi mapped to pi."""
    w = np.remainder(np.atleast_1d(angles) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(w == -math.pi, math.pi, w)


def _roll_error(record):
    """Per-step |wrap(roll_est - roll_true)| of a trial record, rad."""
    return np.abs(_wrap_array(record.roll_est - record.roll_true))


def summarize(summaries, estimator: str):
    """(mean targeting error, mean per-step angular error) for one estimator."""
    group = [s for s in summaries if s.estimator == estimator]
    if not group:
        raise ValueError(f"no trials for estimator {estimator!r}")
    err = float(np.mean([s.targeting_error for s in group]))
    steps = np.array([s.steps for s in group], dtype=float)
    omega = np.array([s.mean_angular_error for s in group])
    return err, float(np.sum(omega * steps) / np.sum(steps))
