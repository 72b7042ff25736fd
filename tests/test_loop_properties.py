"""Invariants of the closed loop, held over drawn media, targets and seeds.

Each example is one truth-steered evaluation trial: the loop steers on the
plant's own pose, so whatever the estimator columns show is the loop's
bookkeeping, not an estimator's error.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from needleroll import evaluate
from needleroll.controller import CONTROLLER
from needleroll.dataset import (
    DEPTH_CAP,
    record_from_line,
    record_to_line,
    run_closed_loop,
)
from needleroll.ekf import EkfState
from needleroll.plant import (
    MEDIUM_PRESETS,
    WORKSPACE,
    rigid_variant,
    sample_target,
)

ZERO, COVARIANCE = np.zeros(3), np.eye(6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(medium=st.sampled_from(sorted(MEDIUM_PRESETS)), rigid=st.booleans(),
       target_seed=st.integers(0, 2**32 - 1),
       trial_seed=st.integers(0, 2**32 - 1))
def test_truth_trial_keeps_the_loop_invariants(medium, rigid, target_seed,
                                               trial_seed):
    """Every logged rotation passes EkfState's orthonormality rule (1e-9);
    the loop ends within DEPTH_CAP / (insertion_speed * dt) + 1 ticks;
    steering on the true pose gives an angular error of exactly 0.0 at
    every step; a rigid medium keeps the tip roll on the base angle to
    1e-12; and the trial line re-encodes to its own bytes."""
    params = MEDIUM_PRESETS[medium]
    params = rigid_variant(params) if rigid else params
    target = sample_target(WORKSPACE, np.random.default_rng(target_seed))
    logged = []

    def capture(*args):
        out = run_closed_loop(*args)
        logged.append(out[0])
        return out

    with mock.patch.object(evaluate, "run_closed_loop", capture):
        record = evaluate.run_trial("truth", params, target, trial_seed)
    (logs,) = logged

    for rows in (*logs["R_true"], *logs["R_est"]):
        EkfState(ZERO, rows, COVARIANCE)  # raises off the rule
    ticks = record.steps + (record.outcome == "arrived")
    dt = 1.0 / CONTROLLER.rate
    assert ticks <= DEPTH_CAP / (CONTROLLER.insertion_speed * dt) + 1
    assert record.angular_error.tolist() == [0.0] * record.steps
    if rigid:
        assert np.abs(record.roll_true - record.base_angle).max() <= 1e-12
    line = record_to_line(record)
    assert record_to_line(record_from_line(line)) == line
