import math

import numpy as np
import pytest

from needleroll.controller import (
    Arrived,
    ControllerParams,
    control,
    targeting_error,
)
from needleroll.plant import (
    GELATIN,
    WORKSPACE,
    ControlInput,
    initial_state,
    rigid_variant,
    sample_target,
    step,
)
from needleroll.se3 import floats3, so3_exp
from oracles import rot_z

PARAMS = ControllerParams()
IDENTITY = (np.zeros(3), np.eye(3))  # (p, R)
DT = 1.0 / PARAMS.rate


def control_pose(pose, target, params):
    """control on a pose's (p, R) arrays and a target array, read as float
    rows and floats."""
    p, R = pose
    return control(R.tolist(), p.tolist(), floats3(target), params)


def steer_with_truth(target, medium, params=PARAMS, max_steps=900):
    """Closed loop on the ground-truth pose; returns (final error, states)."""
    state = initial_state()
    history = [state]
    for _ in range(max_steps):
        u = control(state.rows, state.p, floats3(target), params)
        if isinstance(u, Arrived):
            break
        state = step(state, u, medium, 1.0 / params.rate)
        history.append(state)
    return targeting_error(state.p, target), history


def test_params_validation():
    with pytest.raises(ValueError):
        ControllerParams(insertion_speed=0.0)
    with pytest.raises(ValueError):
        ControllerParams(deadband=-0.1)
    for name in ("insertion_speed", "rotation_speed", "rate", "deadband",
                 "arrival_tolerance"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ControllerParams(**{name: value})


def test_target_on_curving_side_inserts_without_rotation():
    pose = IDENTITY
    u = control_pose(pose, np.array([5.0, 0.0, 50.0]), PARAMS)
    assert isinstance(u, ControlInput)
    assert u.insertion_speed == PARAMS.insertion_speed
    assert u.rotation_speed == 0.0


def test_target_at_quarter_turn_rotates_positive():
    pose = IDENTITY
    u = control_pose(pose, np.array([0.0, 5.0, 50.0]), PARAMS)
    assert u.rotation_speed == PARAMS.rotation_speed


def test_target_at_negative_quarter_turn_rotates_negative():
    pose = IDENTITY
    u = control_pose(pose, np.array([0.0, -5.0, 50.0]), PARAMS)
    assert u.rotation_speed == -PARAMS.rotation_speed


def test_roll_error_accounts_for_current_roll():
    # target on +y: the unrolled tip must spin toward it, while a tip already
    # rolled +pi/2, its bevel pointing at +y, sees zero roll error
    target = np.array([0.0, 5.0, 50.0])
    assert control_pose(IDENTITY, target, PARAMS).rotation_speed > 0.0
    pose = (np.zeros(3), rot_z(math.pi / 2.0))
    assert control_pose(pose, target, PARAMS).rotation_speed == 0.0


def test_arrival_inside_tolerance():
    pose = IDENTITY
    out = control_pose(pose, np.array([0.0, 0.1, 0.2]), PARAMS)
    assert isinstance(out, Arrived)
    assert out.distance == pytest.approx(math.hypot(0.1, 0.2))


def test_arrival_when_target_behind_tip_plane():
    pose = IDENTITY
    out = control_pose(pose, np.array([1.0, 0.0, -3.0]), PARAMS)
    assert isinstance(out, Arrived)


def test_deadband_suppresses_small_errors():
    pose = IDENTITY
    # error just inside the deadband: rotate command must be zero
    target = np.array([50.0 * math.cos(0.04), 50.0 * math.sin(0.04), 50.0])
    u = control_pose(pose, target, PARAMS)
    assert u.rotation_speed == 0.0
    target = np.array([50.0 * math.cos(0.06), 50.0 * math.sin(0.06), 50.0])
    u = control_pose(pose, target, PARAMS)
    assert u.rotation_speed == PARAMS.rotation_speed


def test_rotational_invariance_about_heading():
    rng = np.random.default_rng(0)
    p, R = np.array([1.0, -2.0, 10.0]), np.array(so3_exp([0.2, -0.1, 0.8]))
    target = np.array([4.0, 1.0, 55.0])
    u0 = control_pose((p, R), target, PARAMS)
    for _ in range(25):
        gamma = rng.uniform(-math.pi, math.pi)
        W = np.array(so3_exp((R[:, 2] * gamma).tolist()))
        rolled_target = p + W @ (target - p)
        u1 = control_pose((p, W @ R), rolled_target, PARAMS)
        assert type(u1) is type(u0)
        assert u1.rotation_speed == u0.rotation_speed
        assert u1.insertion_speed == u0.insertion_speed


def test_targeting_error_basics():
    assert targeting_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert targeting_error([0.0, 0.0, 0.0], [3.0, 4.0, 0.0]) == pytest.approx(5.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        brute = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert targeting_error(a, b) == pytest.approx(brute, abs=1e-12)


def test_closed_loop_rigid_plant_reaches_random_targets():
    medium = rigid_variant(GELATIN)
    rng = np.random.default_rng(2)
    for _ in range(12):
        target = sample_target(WORKSPACE, rng)
        err, _ = steer_with_truth(target, medium)
        assert err < 1.0, f"target {target} missed by {err:.3f} mm"


def test_closed_loop_sign_flip_rate_bounded():
    medium = rigid_variant(GELATIN)
    target = np.array([-6.0, 6.0, 60.0])
    _, history = steer_with_truth(target, medium)
    spins = []
    state = initial_state()
    for _ in range(len(history)):
        u = control(state.rows, state.p, floats3(target), PARAMS)
        if isinstance(u, Arrived):
            break
        spins.append(u.rotation_speed)
        state = step(state, u, medium, DT)
    flips = sum(1 for a, b in zip(spins, spins[1:])
                if a != 0.0 and b != 0.0 and (a > 0) != (b > 0))
    seconds = len(spins) * DT
    assert flips <= PARAMS.rate * seconds
