import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needleroll.controller import CONTROLLER
from needleroll.plant import (
    BRAIN,
    GELATIN,
    LUNG,
    MEDIUM_PRESETS,
    WORKSPACE,
    ControlInput,
    MediumParams,
    SensedTip,
    WorkspaceCone,
    advance_tip_pose,
    initial_state,
    require_valid_measurement,
    max_radial_offset,
    rigid_variant,
    sample_target,
    sense,
    step,
    tip_step,
)
from needleroll.se3 import decompose_roll, wrap_angle
from oracles import sense_per_draw

DT = 1.0 / 40.0


def quiet(medium: MediumParams) -> MediumParams:
    import dataclasses

    return dataclasses.replace(medium, position_noise=0.0, heading_noise=0.0)


def run(state, controls, medium, dt=DT):
    for u in controls:
        state = step(state, u, medium, dt)
    return state


# ------------------------------------------------------------------ presets

def test_presets_validate_and_are_slip_stable():
    """The explicit-Euler slip step of MediumParams contracts at the
    controller's loop rate: dt*k/c < 1 for every preset. The rate and the
    presets are constants, so no run can break this and none checks it."""
    dt = 1.0 / CONTROLLER.rate
    for m in MEDIUM_PRESETS.values():
        assert m.curvature > 0
        ratio = dt * m.torsion_stiffness / m.torsion_damping
        assert ratio < 1.0, f"{m.name}: dt*k/c = {ratio:.3g}"


def test_presets_bend_at_the_workspace_curvature():
    """Targets come from WORKSPACE whatever the medium, so every preset,
    rigid or not, must bend at the curvature its cone bounds: a stiffer
    needle could not reach the cone's outer targets."""
    for m in MEDIUM_PRESETS.values():
        for medium in (m, rigid_variant(m)):
            assert medium.curvature == WORKSPACE.bounding_curvature, m.name


def test_medium_params_reject_bad_values():
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(GELATIN, curvature=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(GELATIN, torsion_damping=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(GELATIN, friction_per_depth=-0.1)
    with pytest.raises(ValueError):
        ControlInput(insertion_speed=-1.0, rotation_speed=0.0)


@pytest.mark.parametrize("name", [
    "curvature", "torsion_stiffness", "torsion_damping",
    "friction_per_depth", "position_noise", "heading_noise"])
def test_medium_params_reject_non_finite_values(name):
    import dataclasses

    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dataclasses.replace(GELATIN, **{name: value})


def test_workspace_rejects_non_finite_bounds():
    for kwargs in ({"depth_max": math.inf}, {"depth_min": math.nan},
                   {"bounding_curvature": math.inf},
                   {"min_offset": math.nan}, {"radial_margin": math.nan}):
        with pytest.raises(ValueError):
            WorkspaceCone(**kwargs)


# ----------------------------------------------------------------- kinematics

def test_rigid_straight_run_curves_toward_plus_x():
    # pins the bevel-direction convention the controller relies on
    medium = rigid_variant(quiet(GELATIN))
    state = run(initial_state(), [ControlInput(5.0, 0.0)] * 200, medium)
    x, y, z = state.p
    assert x > 0.5
    assert abs(y) < 1e-9
    assert z > 20.0


def test_rigid_arc_matches_closed_form():
    """Constant insertion at zero roll must trace the circular arc
    ((1-cos(kappa*s))/kappa, 0, sin(kappa*s)/kappa) exactly."""
    medium = rigid_variant(quiet(GELATIN))
    kappa = medium.curvature
    u = ControlInput(5.0, 0.0)
    state = initial_state()
    for i in range(400):
        state = step(state, u, medium, DT)
        s = u.insertion_speed * DT * (i + 1)
        expect = np.array([
            (1.0 - math.cos(kappa * s)) / kappa,
            0.0,
            math.sin(kappa * s) / kappa,
        ])
        assert np.allclose(state.p, expect, atol=1e-9)
    assert state.depth == pytest.approx(50.0)


def test_rigid_flag_locks_roll_to_base_angle():
    medium = rigid_variant(quiet(GELATIN))
    rng = np.random.default_rng(1)
    state = initial_state()
    for _ in range(300):
        u = ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-2 * math.pi, 2 * math.pi))
        state = step(state, u, medium, DT)
        assert state.tip_roll == state.base_angle


def test_pose_roll_component_equals_wrapped_tip_roll():
    medium = quiet(GELATIN)
    rng = np.random.default_rng(2)
    state = initial_state()
    for _ in range(500):
        u = ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-7.0, 7.0))
        state = step(state, u, medium, DT)
        _, pose_roll = decompose_roll(state.rows)
        assert pose_roll == pytest.approx(wrap_angle(state.tip_roll), abs=1e-9)


def test_depth_accumulates_and_angles_unwrapped():
    medium = quiet(GELATIN)
    u = ControlInput(5.0, 2.0 * math.pi)
    state = run(initial_state(), [u] * 80, medium)
    assert state.depth == pytest.approx(5.0 * 80 * DT)
    # two full seconds of rotation: base angle passes 2*pi without wrapping
    assert state.base_angle == pytest.approx(2.0 * math.pi * 80 * DT)


def test_arc_length_matches_inserted_length():
    medium = quiet(GELATIN)
    rng = np.random.default_rng(3)
    state = initial_state()
    total_in = 0.0
    path = 0.0
    prev = np.array(state.p)
    for _ in range(600):
        u = ControlInput(5.0, rng.choice([-2 * math.pi, 0.0, 2 * math.pi]))
        state = step(state, u, medium, DT)
        total_in += u.insertion_speed * DT
        path += float(np.linalg.norm(np.array(state.p) - prev))
        prev = np.array(state.p)
    assert abs(path - total_in) / total_in < 1e-3


def test_advance_tip_pose_pure_roll_keeps_position():
    state = initial_state()
    R, p = advance_tip_pose(state.rows, state.p,
                            tip_step(0.0, 0.005, 1.2, DT), 1.2)
    assert np.allclose(p, state.p)
    _, roll = decompose_roll(R)
    assert roll == pytest.approx(1.2, abs=1e-12)


# -------------------------------------------------------------- torsion lag

def torsion_recurrence(alpha_seq, theta0, medium, depth_seq, dt):
    """Scalar reference for the stick/slip sub-step, kept deliberately
    independent of the plant code."""
    theta = theta0
    out = []
    for alpha, depth in zip(alpha_seq, depth_seq):
        tau = medium.torsion_stiffness * (alpha - theta)
        breakaway = medium.friction_per_depth * depth
        if abs(tau) <= breakaway:
            rate = 0.0
        else:
            rate = (tau - math.copysign(breakaway, tau)) / medium.torsion_damping
        theta = theta + rate * dt
        out.append(theta)
    return out


def test_tip_roll_matches_scalar_stick_slip_reference():
    medium = quiet(GELATIN)
    rng = np.random.default_rng(4)
    state = initial_state()
    controls = [ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-7.0, 7.0))
                for _ in range(400)]
    alpha_seq, depth_seq, rolls = [], [], []
    alpha, depth = 0.0, 0.0
    for u in controls:
        alpha += u.rotation_speed * DT
        alpha_seq.append(alpha)
        depth_seq.append(depth)  # breakaway uses pre-step depth
        depth += u.insertion_speed * DT
    ref = torsion_recurrence(alpha_seq, 0.0, medium, depth_seq, DT)
    for u in controls:
        state = step(state, u, medium, DT)
        rolls.append(state.tip_roll)
    assert np.allclose(rolls, ref, atol=1e-12)


def test_frictionless_relaxation_matches_linear_ode():
    """With friction off and the base held, theta decays to alpha like
    exp(-k/c * t); integrated at a fine dt to stay near the continuum."""
    import dataclasses

    medium = dataclasses.replace(quiet(GELATIN), friction_per_depth=0.0)
    lam = medium.torsion_stiffness / medium.torsion_damping
    dt = 1e-4
    state = initial_state()._replace(base_angle=1.0)
    t = 0.0
    for _ in range(3000):
        state = step(state, ControlInput(0.0, 0.0), medium, dt)
        t += dt
        expect = 1.0 - math.exp(-lam * t)
        assert state.tip_roll == pytest.approx(expect, abs=5e-3)
    assert state.tip_roll == pytest.approx(1.0 - math.exp(-lam * t), abs=1e-3)


def test_frictionless_constant_rotation_steady_lag():
    # steady slip: k*(alpha - theta) = c*rate, rate -> u_rot
    import dataclasses

    medium = dataclasses.replace(quiet(GELATIN), friction_per_depth=0.0)
    u = ControlInput(0.0, 3.0)
    state = run(initial_state(), [u] * 4000, medium, dt=1e-4)
    lag = state.base_angle - state.tip_roll
    expect = medium.torsion_damping * u.rotation_speed / medium.torsion_stiffness
    assert lag == pytest.approx(expect, rel=1e-2)


def test_stiction_holds_tip_below_breakaway():
    import dataclasses

    medium = dataclasses.replace(quiet(GELATIN), friction_per_depth=5.0)
    state = initial_state()._replace(base_angle=0.1, depth=50.0)
    # |tau| = 2*0.1 = 0.2 far below breakaway 250: the tip must not move
    nxt = step(state, ControlInput(0.0, 0.0), medium, DT)
    assert nxt.tip_roll == 0.0
    assert nxt.tip_roll_rate == 0.0


def test_steady_state_lag_grows_with_depth():
    medium = quiet(GELATIN)
    u = ControlInput(5.0, 2.0)
    state = initial_state()
    lags = []
    for i in range(560):
        state = step(state, u, medium, DT)
        if i in (199, 379, 559):
            lags.append(state.base_angle - state.tip_roll)
    assert lags[0] < lags[1] < lags[2]
    # quasi-static slip fixed point at the loop dt: the damping term carries
    # the explicit-Euler factor (1 - dt*k/c); the friction term is exact
    euler = 1.0 - DT * medium.torsion_stiffness / medium.torsion_damping
    depth_pre = state.depth - u.insertion_speed * DT
    expect = (medium.torsion_damping * u.rotation_speed * euler
              + medium.friction_per_depth * depth_pre) / medium.torsion_stiffness
    assert lags[2] == pytest.approx(expect, rel=0.05)


# ------------------------------------------------------------------- sensing

def test_sense_noiseless_is_exact():
    state = run(initial_state(), [ControlInput(5.0, 1.0)] * 100, quiet(GELATIN))
    meas = sense(state, quiet(GELATIN), np.random.default_rng(0))
    assert np.allclose(meas.position, state.p, atol=1e-15)
    assert np.allclose(meas.heading, np.array(state.rows)[:, 2], atol=1e-15)


def test_sense_position_noise_statistics():
    state = initial_state()
    rng = np.random.default_rng(6)
    draws = np.array([sense(state, GELATIN, rng).position for _ in range(10_000)])
    stds = draws.std(axis=0)
    assert np.all(np.abs(stds - GELATIN.position_noise) < 0.1 * GELATIN.position_noise)


def test_sense_heading_noise_statistics_and_unit_norm():
    state = run(initial_state(), [ControlInput(5.0, 0.0)] * 200, quiet(GELATIN))
    eta = np.array(state.rows)[:, 2]
    rng = np.random.default_rng(7)
    angles = []
    for _ in range(10_000):
        meas = sense(state, LUNG, rng)
        assert abs(np.linalg.norm(meas.heading) - 1.0) < 1e-12
        angles.append(math.acos(min(1.0, abs(float(np.dot(meas.heading, eta))))))
    # |tilt| of a folded gaussian: std of the signed tilt is heading_noise
    assert np.std(angles) < LUNG.heading_noise
    assert np.mean(angles) == pytest.approx(
        LUNG.heading_noise * math.sqrt(2.0 / math.pi), rel=0.05
    )


def test_sense_deterministic_given_seed():
    state = run(initial_state(), [ControlInput(5.0, 2.0)] * 50, GELATIN)
    a = sense(state, GELATIN, np.random.default_rng(11))
    b = sense(state, GELATIN, np.random.default_rng(11))
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.heading, b.heading)


@pytest.mark.parametrize("seed, medium", [
    (0, GELATIN), (1, LUNG), (2, rigid_variant(BRAIN)), (3, quiet(LUNG))],
    ids=["gelatin", "lung", "rigid_brain", "noiseless"])
def test_sense_single_draw_matches_per_draw_sense_bitwise(seed, medium):
    """One standard_normal(4) draw scaled as 0.0 + sigma * z gives the
    bits, and leaves the generator in the state, of rng.normal's three
    position and one tilt draws, tick after tick of a rotating insertion."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    state = initial_state()
    for k in range(300):
        got = sense(state, medium, rng)
        ref = sense_per_draw(state, medium, ref_rng)
        assert np.array(got).tobytes() == np.array(ref).tobytes(), k
        state = step(state, ControlInput(5.0, 2.0 * math.sin(0.05 * k)),
                     medium, DT)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ------------------------------------------------------------------ workspace

def test_sample_target_zero_curvature_limit_is_on_axis():
    cone = WorkspaceCone(bounding_curvature=0.0)
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = sample_target(cone, rng)
        assert t[0] == 0.0 and t[1] == 0.0
        assert 40.0 <= t[2] <= 75.0


def test_sample_target_respects_radial_bound_and_covers_depths():
    cone = WorkspaceCone()
    rng = np.random.default_rng(9)
    zs = []
    for _ in range(10_000):
        t = sample_target(cone, rng)
        r = math.hypot(t[0], t[1])
        assert cone.depth_min <= t[2] <= cone.depth_max
        assert r <= max_radial_offset(cone, t[2]) + 1e-12
        zs.append(t[2])
    assert min(zs) < 41.0 and max(zs) > 74.0


def test_sample_target_deterministic_given_seed():
    cone = WorkspaceCone()
    a = [sample_target(cone, np.random.default_rng(12)) for _ in range(1)]
    b = [sample_target(cone, np.random.default_rng(12)) for _ in range(1)]
    assert np.array_equal(a[0], b[0])


def test_max_radial_offset_closed_form():
    cone = WorkspaceCone()
    k = cone.bounding_curvature
    z = 75.0
    assert max_radial_offset(cone, z) == pytest.approx(
        (1.0 - math.sqrt(1.0 - (k * z) ** 2)) / k
    )


# --------------------------------------------------------------- determinism

def test_trajectories_bit_identical_for_identical_inputs():
    rng = np.random.default_rng(10)
    controls = [ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-7.0, 7.0))
                for _ in range(200)]

    def simulate(seed):
        state = initial_state()
        noise = np.random.default_rng(seed)
        out = []
        for u in controls:
            state = step(state, u, GELATIN, DT)
            meas = sense(state, GELATIN, noise)
            out.append((np.array(state.p), state.tip_roll, meas.position,
                        meas.heading))
        return out

    for (pa, ra, ma, ha), (pb, rb, mb, hb) in zip(simulate(42), simulate(42)):
        assert np.array_equal(pa, pb) and ra == rb
        assert np.array_equal(ma, mb) and np.array_equal(ha, hb)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 5.0), st.integers(1, 60))
def test_pure_insertion_never_rolls_from_rest(speed, n):
    medium = quiet(GELATIN)
    state = initial_state()
    for _ in range(n):
        state = step(state, ControlInput(speed, 0.0), medium, DT)
    assert state.tip_roll == 0.0
    assert state.depth == pytest.approx(speed * n * DT)
    heading = np.array(state.rows)[:, 2]
    assert np.linalg.norm(heading) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["float arrays", "lists"])
def test_require_valid_measurement_rejects_bad_readings(kind):
    """NaN and infinite readings or base angles, and a heading off unit norm
    by more than the tolerance, raise; the checks read arrays and lists
    alike."""
    def meas(position, heading):
        if kind == "lists":
            return SensedTip(position=list(position), heading=list(heading))
        return SensedTip(position=np.array(position), heading=np.array(heading))

    p, h = [1.0, -2.0, 30.0], [0.0, 0.6, 0.8]
    require_valid_measurement(meas(p, h), 0.5)
    require_valid_measurement(meas(p, [0.0, 0.6, 0.8 * (1.0 + 5e-7)]), 0.5)
    bad = [
        ([1.0, math.nan, 30.0], h, 0.5, "non-finite"),
        ([math.inf, -2.0, 30.0], h, 0.5, "non-finite"),
        (p, [0.0, -math.inf, 0.8], 0.5, "non-finite"),
        (p, [math.nan, 0.6, 0.8], 0.5, "non-finite"),
        (p, h, math.nan, "non-finite"),
        (p, h, -math.inf, "non-finite"),
        (p, [0.0, 0.6, 0.81], 0.5, "unit-norm"),
        (p, [0.0, 0.0, 0.0], 0.5, "unit-norm"),
    ]
    for position, heading, base_angle, match in bad:
        with pytest.raises(ValueError, match=match):
            require_valid_measurement(meas(position, heading), base_angle)
