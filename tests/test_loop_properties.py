"""Invariants of the closed loop, held over drawn media, targets and seeds.

Each example is one evaluation trial. A truth-steered one steers on the
plant's own pose, so whatever its estimator columns show is the loop's
bookkeeping, not an estimator's error; an ekf- or lstm-steered one (the
lstm a small untrained model) steers on an estimated pose.
"""

import dataclasses
import math
import typing
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from needleroll import evaluate
from needleroll.controller import CONTROLLER
from needleroll.dataset import (
    DEPTH_CAP,
    EpisodeRecord,
    record_from_line,
    record_to_line,
    run_closed_loop,
)
from needleroll.ekf import EkfState
from needleroll.lstm import init_model
from needleroll.plant import (
    MEDIUM_PRESETS,
    WORKSPACE,
    rigid_variant,
    sample_target,
)

ZERO, COVARIANCE = np.zeros(3), np.eye(6)
MODEL = init_model(WORKSPACE.depth_max, hidden_size=4, seed=1)


def _trial(estimator, medium, rigid, target_seed, trial_seed):
    """(record, logs, final_state) of one trial: run_trial's record, and
    the tick logs and the final plant state run_closed_loop returned to
    it."""
    params = MEDIUM_PRESETS[medium]
    params = rigid_variant(params) if rigid else params
    target = sample_target(WORKSPACE, np.random.default_rng(target_seed))
    logged = []

    def capture(*args):
        out = run_closed_loop(*args)
        logged.append(out)
        return out

    with mock.patch.object(evaluate, "run_closed_loop", capture):
        record = evaluate.run_trial(estimator, params, target, trial_seed,
                                    model=MODEL)
    ((logs, final_state, *_),) = logged
    return record, logs, final_state


def _float_fields_are_floats(obj):
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        if hints[f.name] is float:
            assert type(getattr(obj, f.name)) is float, f.name


def _decodes_field_by_field(record):
    """record_from_line(record_to_line(record)) equals record in every
    field, arrays bit for bit, with every float field a float and the seed
    a tuple of ints; the decoded record re-encodes to the same line."""
    line = record_to_line(record)
    back = record_from_line(line)
    for f in dataclasses.fields(EpisodeRecord):
        want, got = getattr(record, f.name), getattr(back, f.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name
    _float_fields_are_floats(back.medium)
    _float_fields_are_floats(back.controller)
    assert type(back.target) is tuple
    assert all(type(c) is float for c in back.target)
    assert type(back.seed) is tuple
    assert all(type(s) is int for s in back.seed)
    assert record_to_line(back) == line


def _keeps_the_loop_invariants(record, logs, rigid):
    """Every logged rotation passes EkfState's orthonormality rule (1e-9);
    the loop ends within DEPTH_CAP / (insertion_speed * dt) + 1 ticks;
    angular errors lie in [0, pi]; a rigid medium keeps the tip roll on
    the base angle to 1e-12; and the trial line decodes field by field."""
    for rows in (*logs["R_true"], *logs["R_est"]):
        EkfState(ZERO, rows, COVARIANCE)  # raises off the rule
    ticks = record.steps + (record.outcome == "arrived")
    dt = 1.0 / CONTROLLER.rate
    assert ticks <= DEPTH_CAP / (CONTROLLER.insertion_speed * dt) + 1
    assert 0.0 <= record.angular_error.min()
    assert record.angular_error.max() <= math.pi
    if rigid:
        assert np.abs(record.roll_true - record.base_angle).max() <= 1e-12
    _decodes_field_by_field(record)


TRIALS = dict(medium=st.sampled_from(sorted(MEDIUM_PRESETS)),
              rigid=st.booleans(), target_seed=st.integers(0, 2**32 - 1),
              trial_seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**TRIALS)
def test_truth_trial_keeps_the_loop_invariants(medium, rigid, target_seed,
                                               trial_seed):
    """The loop invariants hold; steering on the true pose gives an
    angular error of exactly 0.0 at every step; and an arrived trial stops
    within arrival_tolerance of the target, or with the target no longer
    ahead of the tip plane."""
    record, logs, final = _trial("truth", medium, rigid, target_seed,
                                 trial_seed)
    _keeps_the_loop_invariants(record, logs, rigid)
    assert record.angular_error.tolist() == [0.0] * record.steps
    if record.outcome == "arrived":
        heading = [row[2] for row in final.rows]
        ahead = sum(h * (t - p)
                    for h, t, p in zip(heading, record.target, final.p))
        assert (record.final_error <= CONTROLLER.arrival_tolerance
                or ahead <= 0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(estimator=st.sampled_from(["ekf", "lstm"]), **TRIALS)
def test_estimated_trial_keeps_the_loop_invariants(estimator, medium, rigid,
                                                   target_seed, trial_seed):
    """The loop invariants hold under an estimated pose, and the same trial
    run again writes the same line."""
    record, logs, _ = _trial(estimator, medium, rigid, target_seed,
                             trial_seed)
    _keeps_the_loop_invariants(record, logs, rigid)
    again, *_ = _trial(estimator, medium, rigid, target_seed, trial_seed)
    assert record_to_line(again) == record_to_line(record)
