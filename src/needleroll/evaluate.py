"""Closed-loop estimator comparison harness.

Runs steering trials with interchangeable tip-state estimators (true pose,
Kalman filter, learned roll tracker), logs per-step agreement between the
estimated and true tip rotation, and renders targeting-error and angular-
error tables. Trials are paired: every estimator steers to the same target
sequence, with its own sensor-noise stream.

Artifact layout under an output directory:
    trials/summaries.csv    one row per trial
    trials/episodes.jsonl   full per-step records of every trial
    traces/trace_*.csv      per-step estimate traces
    histogram.csv           angular-error histogram per estimator and medium
    report.txt              aggregate statistics
report.txt and histogram.csv are derived from the persisted CSVs alone, so
re-rendering an existing directory reproduces them byte for byte.
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
TRACE_COLUMNS = ["t", "roll_true", "roll_est", "angular_error"]


@dataclass(frozen=True, eq=False)
class EstimatorTrace:
    """Per-step agreement between the estimated and true tip rotation.

    angular_error is the geodesic distance between the full rotations;
    roll_est/roll_true are the wrapped roll components alone.
    """

    trial_id: int
    estimator: str
    medium: str
    t: np.ndarray
    roll_true: np.ndarray
    roll_est: np.ndarray
    angular_error: np.ndarray

    def validate(self):
        n = len(self.t)
        for name in ("roll_true", "roll_est", "angular_error"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must match the timestep count")
        if n and not (self.angular_error.min() >= 0.0
                      and self.angular_error.max() <= math.pi + 1e-12):
            raise ValueError("angular errors must lie in [0, pi]")


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

    def __post_init__(self):
        if self.targeting_error < 0.0:
            raise ValueError("targeting error must be nonnegative")


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

    Returns (EpisodeRecord, EstimatorTrace, TrialSummary). The targeting
    error is measured on the true tip, whatever the estimator believed.
    """
    seed = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
    estimator = make_estimator(estimator_name, medium, controller, model)
    logs, _, outcome, final_error = run_closed_loop(
        medium, controller, target, rng, estimator, depth_cap)
    record = record_from_logs(trial_id, seed, medium, controller, target,
                              outcome, final_error, logs)
    roll_est = np.array([decompose_roll(R)[1] for R in logs["R_est"]])
    omega = np.array([angular_error(R_true, R_est) for R_true, R_est
                      in zip(logs["R_true"], logs["R_est"])])
    roll_err = np.abs(_wrap_array(roll_est - record.roll_true))
    trace = EstimatorTrace(
        trial_id=trial_id, estimator=estimator_name, medium=medium.name,
        t=record.t, roll_true=_wrap_array(record.roll_true),
        roll_est=roll_est, angular_error=omega,
    )
    trace.validate()
    summary = TrialSummary(
        trial_id=trial_id, estimator=estimator_name, medium=medium.name,
        seed=seed, outcome=outcome, steps=record.steps,
        targeting_error=final_error,
        mean_angular_error=float(np.mean(omega)),
        mean_roll_error=float(np.mean(roll_err)),
    )
    return record, trace, summary


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
    Returns (records, traces, summaries); persists and renders the report
    when out_dir is given.
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
    records = [r for r, _, _ in results]
    traces = [t for _, t, _ in results]
    summaries = [s for _, _, s in results]
    if out_dir is not None:
        report(records, traces, summaries, out_dir, bin_width)
    return records, traces, summaries


# ------------------------------------------------------------------ analysis

def histogram(traces, bin_width: float = DEFAULT_BIN_WIDTH):
    """(edges, counts) over all timesteps of all traces; bins cover [0, pi]."""
    edges = bin_edges(bin_width)
    values = (np.concatenate([tr.angular_error for tr in traces])
              if traces else np.empty(0))
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts


def bin_edges(bin_width: float = DEFAULT_BIN_WIDTH) -> np.ndarray:
    """Histogram bin edges: steps of bin_width, the last widened to pi."""
    if bin_width <= 0.0:
        raise ValueError("bin width must be positive")
    n_bins = max(1, math.ceil(math.pi / bin_width))
    edges = np.arange(n_bins + 1) * bin_width
    edges[-1] = max(edges[-1], math.pi)
    return edges


# ---------------------------------------------------------------- persistence

def _fmt(x: float) -> str:
    return repr(float(x))


def trace_filename(trace_row) -> str:
    return (f"trace_{int(trace_row['trial_id']):04d}_{trace_row['medium']}_"
            f"{trace_row['estimator']}.csv")


def report(records, traces, summaries, out_dir: Path,
           bin_width: float = DEFAULT_BIN_WIDTH):
    """Persist trial artifacts and render the aggregate report.

    Raw values go to CSV with full-precision repr floats; report.txt and
    histogram.csv are then re-derived from those files only (see
    render_report), keeping regeneration byte-identical.
    """
    if not summaries:
        raise ValueError("nothing to report")
    out_dir = Path(out_dir)
    (out_dir / "trials").mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)

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

    for tr in traces:
        row = {"trial_id": tr.trial_id, "medium": tr.medium,
               "estimator": tr.estimator}
        with open(out_dir / "traces" / trace_filename(row), "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for k in range(len(tr.t)):
                writer.writerow([_fmt(tr.t[k]), _fmt(tr.roll_true[k]),
                                 _fmt(tr.roll_est[k]),
                                 _fmt(tr.angular_error[k])])

    render_report(out_dir, bin_width)


def _read_summaries(out_dir: Path):
    with open(Path(out_dir) / "trials" / "summaries.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_trace(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col: np.array([float(r[col]) for r in rows])
            for col in TRACE_COLUMNS}


def render_report(out_dir: Path, bin_width: float = DEFAULT_BIN_WIDTH):
    """Rebuild histogram.csv and report.txt from the persisted CSVs only."""
    out_dir = Path(out_dir)
    rows = _read_summaries(out_dir)
    if not rows:
        raise ValueError(f"no summary rows under {out_dir}")

    trace_data = {}
    for row in rows:
        path = out_dir / "traces" / trace_filename(row)
        if path.exists():
            trace_data[(row["medium"], row["estimator"],
                        int(row["trial_id"]))] = _read_trace(path)

    groups = sorted({(r["medium"], r["estimator"]) for r in rows})
    edges = bin_edges(bin_width)
    lines = ["closed-loop steering report", ""]
    with open(out_dir / "histogram.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["medium", "estimator", "bin_lo", "bin_hi", "count"])
        for medium, estimator in groups:
            traces = [trace_data[k] for k in sorted(trace_data)
                      if k[:2] == (medium, estimator)]
            omega = (np.concatenate([t["angular_error"] for t in traces])
                     if traces else np.empty(0))
            counts, _ = np.histogram(omega, bins=edges)
            for k in range(len(counts)):
                writer.writerow([medium, estimator, _fmt(edges[k]),
                                 _fmt(edges[k + 1]), int(counts[k])])

            group = [r for r in rows
                     if r["medium"] == medium and r["estimator"] == estimator]
            errors = np.array([float(r["targeting_error_mm"]) for r in group])
            arrived = sum(1 for r in group if r["outcome"] == "arrived")
            step_counts = np.array([int(r["steps"]) for r in group])
            if traces:
                roll_err = np.abs(np.concatenate(
                    [_wrap_array(t["roll_est"] - t["roll_true"]) for t in traces]))
                omega_line = (f"  per-step angular error: mean {np.mean(omega):.4f}"
                              f" rad, median {np.median(omega):.4f} rad")
                roll_line = (f"  per-step roll error:    mean "
                             f"{np.mean(roll_err):.4f} rad")
            else:
                omega_line = "  per-step angular error: no traces"
                roll_line = "  per-step roll error:    no traces"
            lines += [
                f"[{medium} / {estimator}]",
                f"  trials: {len(group)} ({arrived} arrived), "
                f"mean steps {np.mean(step_counts):.1f}",
                f"  targeting error: mean {np.mean(errors):.4f} mm, "
                f"median {np.median(errors):.4f} mm, max {np.max(errors):.4f} mm",
                omega_line,
                roll_line,
                "",
            ]
    (out_dir / "report.txt").write_text("\n".join(lines))


def _wrap_array(angles):
    """wrap_angle over an array: the same remainder, -pi mapped to pi."""
    w = np.remainder(np.atleast_1d(angles) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(w == -math.pi, math.pi, w)


def summarize(summaries, estimator: str, medium: str | None = None):
    """(mean targeting error, mean per-step angular error) for one group."""
    group = [s for s in summaries if s.estimator == estimator
             and (medium is None or s.medium == medium)]
    if not group:
        raise ValueError(f"no trials for estimator {estimator!r}")
    err = float(np.mean([s.targeting_error for s in group]))
    steps = np.array([s.steps for s in group], dtype=float)
    omega = np.array([s.mean_angular_error for s in group])
    return err, float(np.sum(omega * steps) / np.sum(steps))
