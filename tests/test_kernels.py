"""The scalar 3-vector kernels against the numpy formulations they replace.

The kernels follow one convention: floats in, float rows out, and arrays
only where the filter mean or the covariance needs them. So the tests
below call them on .tolist() floats, as the package does.

The reference implementations below are the generic-numpy versions of
heading_tangent_basis, align_jacobian, so3_exp and se3_exp (cross products,
norms, 3x3 products, one Jacobian column per basis perturbation). The
package's closed forms must agree with them to rounding. The uncached
tip_step, which builds the bevel arc with se3_exp on every call, is the
reference for the cached one, which must agree with it bit for bit.
heading_tangent_basis, advance_tip_pose and ekf.transition_jacobian write
the dot3/unit3/cross3 helpers out; their compositions of those helpers (in
oracles) are the references they must match bit for bit.

The closed-loop tick's scalar kernels have references too: the controller
written with np.linalg.norm, np.dot and R.T @ offset must take the same
decisions, the sensor model written with numpy vector arithmetic over the
arrays of heading_tangent_basis's rows must give the same bits and leave
the generator in the same state, and the plant step on float rows must
give the bits of the step written on a pose's (p, R) arrays.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from needleroll.controller import Arrived, ControllerParams, control
from needleroll.ekf import align_jacobian, transition_jacobian
from needleroll.plant import (
    BRAIN,
    GELATIN,
    LUNG,
    ControlInput,
    PlantState,
    SensedTip,
    advance_tip_pose,
    initial_state,
    rigid_variant,
    sense,
    step,
    tip_step,
)
from needleroll.se3 import (
    decompose_roll,
    dot3,
    heading_tangent_basis,
    recompose_roll,
    se3_exp,
    so3_exp,
    unit3,
    wrap_angle,
)
from oracles import (
    advance_tip_pose_composed,
    heading_tangent_basis_composed,
    transition_jacobian_composed,
)

EZ = np.array([0.0, 0.0, 1.0])
TOL = 1e-14


def reference_skew(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def reference_heading_tangent_basis(eta):
    ref = np.array([1.0, 0.0, 0.0]) if abs(eta[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = np.cross(eta, ref)
    b1 = b1 / np.linalg.norm(b1)
    b2 = np.cross(eta, b1)
    return b1, b2 / np.linalg.norm(b2)


def reference_align_from_z(eta):
    K = reference_skew(np.array([-eta[1], eta[0], 0.0]))
    return np.eye(3) + K + (K @ K) / (1.0 + eta[2])


def reference_align_jacobian(eta):
    A = reference_align_from_z(eta)
    c = float(eta[2])
    K = reference_skew(np.array([-eta[1], eta[0], 0.0]))
    KK = K @ K
    cols = []
    for j in range(3):
        basis = np.zeros(3)
        basis[j] = 1.0
        dK = reference_skew(np.cross(EZ, basis))
        dA = dK + (dK @ K + K @ dK) / (1.0 + c) - KK * (basis[2] / (1.0 + c) ** 2)
        W = A.T @ dA
        cols.append(0.5 * np.array([W[2, 1] - W[1, 2], W[0, 2] - W[2, 0],
                                    W[1, 0] - W[0, 1]]))
    return np.column_stack(cols)


def reference_so3_exp(w):
    t = float(np.linalg.norm(w))
    K = reference_skew(w)
    if t < 1e-8:
        a = 1.0 - t * t / 6.0
        b = 0.5 - t * t / 24.0
    else:
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / (t * t)
    return np.eye(3) + a * K + b * (K @ K)


def reference_v_matrix(w):
    t = float(np.linalg.norm(w))
    K = reference_skew(w)
    if t < 1e-8:
        b = 0.5 - t * t / 24.0
        c = 1.0 / 6.0 - t * t / 120.0
    else:
        b = (1.0 - math.cos(t)) / (t * t)
        c = (t - math.sin(t)) / (t * t * t)
    return np.eye(3) + b * K + c * (K @ K)


def reference_se3_exp(twist, dt):
    xi = np.asarray(twist, dtype=float) * dt
    v, w = xi[:3], xi[3:]
    return reference_so3_exp(w), reference_v_matrix(w) @ v


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# unit headings with eta_z > -0.5, the workspace's side of the sphere
headings = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 1.0),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(_unit).filter(lambda e: e[2] > -0.5)

# rotation vectors of norm 0 to pi, including the series branch below 1e-8
rotation_vectors = st.tuples(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    .filter(lambda v: np.linalg.norm(v) > 1e-3).map(_unit),
    st.one_of(st.just(0.0), st.floats(0.0, 1e-8), st.floats(0.0, math.pi)),
).map(lambda d: d[0] * d[1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(eta=headings, w=rotation_vectors,
       v=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       dt=st.floats(0.01, 1.0))
def test_scalar_kernels_match_numpy_references(eta, w, v, dt):
    b1, b2 = heading_tangent_basis(eta.tolist())
    r1, r2 = reference_heading_tangent_basis(eta)
    np.testing.assert_allclose(b1, r1, rtol=0, atol=TOL)
    np.testing.assert_allclose(b2, r2, rtol=0, atol=TOL)
    # an orthonormal pair perpendicular to eta
    frame = np.array([b1, b2, eta])
    np.testing.assert_allclose(frame @ frame.T, np.eye(3), rtol=0, atol=TOL)

    np.testing.assert_allclose(align_jacobian(eta.tolist()),
                               reference_align_jacobian(eta), rtol=0, atol=TOL)
    np.testing.assert_allclose(so3_exp(w.tolist()), reference_so3_exp(w),
                               rtol=0, atol=TOL)

    twist = np.concatenate([v, w]) / dt  # so the step's rotation is w
    R, p = se3_exp(twist, dt)
    R_ref, p_ref = reference_se3_exp(twist, dt)
    np.testing.assert_allclose(R, R_ref, rtol=0, atol=TOL)
    np.testing.assert_allclose(p, p_ref, rtol=0, atol=TOL)


def _on_x_circle(e0: float, azimuth: float) -> tuple:
    """The unit heading with x component e0 at azimuth about the x axis."""
    r = math.sqrt(1.0 - e0 * e0)
    return (e0, r * math.cos(azimuth), r * math.sin(azimuth))


# headings on both sides of the basis switch at |eta[0]| = 0.9 and on it,
# the workspace's headings, and the axes with signed zeros
basis_headings = st.one_of(
    st.builds(_on_x_circle,
              st.one_of(st.floats(-1.0, 1.0), st.floats(0.89, 0.91),
                        st.floats(-0.91, -0.89),
                        st.sampled_from([0.9, -0.9, math.nextafter(0.9, 0.0),
                                         math.nextafter(-0.9, 0.0)])),
              st.floats(0.0, 2.0 * math.pi)),
    headings.map(lambda e: tuple(e.tolist())),
    st.sampled_from([(1.0, 0.0, -0.0), (-1.0, -0.0, 0.0), (0.0, -0.0, 1.0),
                     (-0.0, 0.0, -1.0)]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(eta=basis_headings)
@example(eta=_on_x_circle(math.nextafter(0.9, 0.0), 1.0))  # eta x e_x
@example(eta=_on_x_circle(0.9, 1.0))  # eta x e_y
@example(eta=_on_x_circle(-0.9, 4.0))
def test_heading_tangent_basis_is_its_helper_composition_bitwise(eta):
    got = heading_tangent_basis(eta)
    assert np.array(got).tobytes() == \
        np.array(heading_tangent_basis_composed(eta)).tobytes()
    # the list an array's tolist() gives, as the filter passes it
    assert np.array(heading_tangent_basis(list(eta))).tobytes() == \
        np.array(got).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rotation=rotation_vectors,
       p=st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0),
                   st.floats(0.0, 80.0)),
       roll=st.floats(-20.0, 20.0),
       delta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5)),
       speed=st.one_of(st.sampled_from([0.0, -0.0, 5.0]),
                       st.floats(0.0, 20.0)),
       curvature=st.one_of(st.just(0.005), st.floats(1e-4, 0.05)),
       dt=st.one_of(st.just(0.025), st.floats(1e-3, 0.1)))
def test_advance_tip_pose_is_its_helper_composition_bitwise(
        rotation, p, roll, delta, speed, curvature, dt):
    rows = so3_exp(rotation.tolist())
    move = tip_step(speed, curvature, delta, dt)
    got = advance_tip_pose(rows, p, move, roll + delta)
    ref = advance_tip_pose_composed(rows, p, move, roll + delta)
    assert np.array(got[0]).tobytes() == np.array(ref[0]).tobytes()
    assert np.array(got[1]).tobytes() == np.array(ref[1]).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rotation=rotation_vectors,
       delta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5)),
       speed=st.one_of(st.sampled_from([0.0, -0.0, 5.0]),
                       st.floats(0.0, 20.0)),
       curvature=st.one_of(st.just(0.005), st.floats(1e-4, 0.05)),
       dt=st.one_of(st.just(0.025), st.floats(1e-3, 0.1)))
def test_transition_jacobian_is_its_helper_composition_bitwise(
        rotation, delta, speed, curvature, dt):
    """At predict's arguments: the prior's rows, its heading and roll, and
    the step to roll + delta."""
    rows = so3_exp(rotation.tolist())
    assume(rows[2][2] > -0.5)  # the workspace's headings, off antiparallel
    eta, roll = decompose_roll(rows)
    roll_new = roll + delta
    move = tip_step(speed, curvature, roll_new - roll, dt)
    got = transition_jacobian(rows, eta, roll_new, move)
    ref = transition_jacobian_composed(rows, eta, roll_new, move)
    assert got.tobytes() == ref.tobytes()


def test_series_branch_is_exercised():
    w = np.array([3e-9, -4e-9, 0.0])  # norm 5e-9
    np.testing.assert_allclose(so3_exp(w.tolist()), reference_so3_exp(w),
                               rtol=0, atol=TOL)
    twist = np.concatenate([[0.1, 0.2, 0.3], w])
    np.testing.assert_allclose(se3_exp(twist)[1], reference_se3_exp(twist, 1.0)[1],
                               rtol=0, atol=TOL)


def reference_tip_step(insertion_speed, curvature, delta, dt):
    arc_R, arc_p = map(np.array, se3_exp(
        [0.0, 0.0, insertion_speed, 0.0, curvature * insertion_speed, 0.0], dt
    ))
    c, s = math.cos(delta), math.sin(delta)
    p0, p1, p2 = arc_p.tolist()
    h0, h1, h2 = arc_R[:, 2].tolist()
    return ((c * p0 - s * p1, s * p0 + c * p1, p2),
            (c * h0 - s * h1, s * h0 + c * h1, h2))


def _bits(step):
    """The six floats of a tip_step result as bytes: equal bits, sign of
    zero included."""
    return struct.pack("<6d", *step[0], *step[1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(speed=st.one_of(st.sampled_from([0.0, -0.0, 5.0]), st.floats(-20.0, 20.0)),
       curvature=st.one_of(st.just(0.005), st.floats(1e-4, 0.05)),
       delta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-math.pi, math.pi)),
       dt=st.one_of(st.just(0.025), st.floats(1e-3, 0.1)))
def test_cached_tip_step_is_the_se3_exp_step_bitwise(speed, curvature, delta,
                                                      dt):
    # each speed and its negation (so +0.0 and -0.0) twice: the first call
    # may fill the cache, the second reads it
    for v in (speed, -speed, speed, -speed):
        assert _bits(tip_step(v, curvature, delta, dt)) == \
            _bits(reference_tip_step(v, curvature, delta, dt))


def test_tip_step_keeps_the_sign_of_a_zero_speed():
    # a -0.0 speed gives the arc a -0.0 heading component, which a -0.0 roll
    # change carries into the result
    plus = tip_step(0.0, 0.005, -0.0, 0.025)
    minus = tip_step(-0.0, 0.005, -0.0, 0.025)
    assert plus == minus  # equal values ...
    assert _bits(plus) != _bits(minus)  # ... that differ in a zero's sign
    assert _bits(minus) == _bits(reference_tip_step(-0.0, 0.005, -0.0, 0.025))


def reference_control(est_pose, target, params):
    p, R = est_pose
    target = np.asarray(target, dtype=float)
    offset = target - p
    distance = float(np.linalg.norm(offset))
    ahead = float(np.dot(R[:, 2], offset))
    if distance <= params.arrival_tolerance or ahead <= 0.0:
        return Arrived(distance=distance)
    rel = R.T @ offset
    err = wrap_angle(math.atan2(rel[1], rel[0]))
    spin = math.copysign(params.rotation_speed, err) \
        if abs(err) > params.deadband else 0.0
    return ControlInput(insertion_speed=params.insertion_speed,
                        rotation_speed=spin)


def reference_sense(state, medium, rng):
    position = np.array(state.p) + rng.normal(0.0, medium.position_noise,
                                              size=3)
    eta = np.array(state.rows)[:, 2].tolist()
    tilt = rng.normal(0.0, medium.heading_noise)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    b1, b2 = np.array(heading_tangent_basis(eta))
    axis = (math.cos(azimuth) * b1 + math.sin(azimuth) * b2) * tilt
    heading = [dot3(r, eta) for r in so3_exp(axis.tolist())]
    return SensedTip(position=position, heading=np.array(unit3(heading)))


def state_at(pose, base_angle=0.0, tip_roll=0.0, depth=0.0, tip_roll_rate=0.0):
    """A PlantState at pose (p, R): its rotation's rows and position as
    floats."""
    p, R = pose
    return PlantState(rows=tuple(map(tuple, R.tolist())),
                      p=tuple(p.tolist()), base_angle=base_angle,
                      tip_roll=tip_roll, depth=depth,
                      tip_roll_rate=tip_roll_rate)


def reference_step(pose, base_angle, tip_roll, depth, u, medium, dt):
    """plant.step as written on a pose's (p, R) arrays: the stick/slip
    sub-step, then the pose step on R.tolist() built back into arrays.
    Returns the new ((p, R), base_angle, tip_roll, depth, tip_roll_rate)."""
    alpha = base_angle + u.rotation_speed * dt
    if medium.rigid:
        roll = alpha
        rate = u.rotation_speed
    else:
        torque = medium.torsion_stiffness * (alpha - tip_roll)
        breakaway = medium.friction_per_depth * depth
        if abs(torque) <= breakaway:
            rate = 0.0
        else:
            rate = (torque - math.copysign(breakaway, torque)) / medium.torsion_damping
        roll = tip_roll + rate * dt
    p, R = pose
    rows = R.tolist()
    m_p, m = tip_step(u.insertion_speed, medium.curvature, roll - tip_roll, dt)
    p_new = np.array([x + dot3(r, m_p) for x, r in zip(p.tolist(), rows)])
    R_new = np.array(recompose_roll([dot3(r, m) for r in rows], roll))
    return ((p_new, R_new), alpha, roll,
            depth + u.insertion_speed * dt, rate)


coords = st.floats(-80.0, 80.0)
points = st.tuples(coords, coords, coords).map(np.array)
poses = st.builds(lambda p, w: (p, np.array(so3_exp(w.tolist()))), points,
                  rotation_vectors)

# targets anywhere around the tip (about half behind its plane) and
# within the arrival tolerance
targets_near = st.tuples(*[st.floats(-0.3, 0.3)] * 3).map(np.array)
target_offsets = st.one_of(points, targets_near)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pose=poses, offset=target_offsets,
       deadband=st.one_of(st.just(ControllerParams.deadband),
                          st.floats(0.0, 1.0)))
def test_scalar_control_matches_numpy_reference(pose, offset, deadband):
    params = ControllerParams(deadband=deadband)
    p, R = pose
    target = p + offset
    got = control(R.tolist(), p.tolist(), target.tolist(), params)
    ref = reference_control(pose, target, params)
    assert type(got) is type(ref)
    if isinstance(ref, Arrived):
        # np.linalg.norm sums through BLAS, which may fuse or reorder
        assert got.distance == pytest.approx(ref.distance, rel=1e-15, abs=0)
    else:
        assert got == ref


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pose=poses, seed=st.integers(0, 2**32 - 1),
       medium=st.sampled_from([GELATIN, LUNG]))
def test_scalar_sense_is_the_numpy_formula_bitwise(pose, seed, medium):
    state = state_at(pose)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sense(state, medium, rng)
    ref = reference_sense(state, medium, ref_rng)
    assert np.array(got.position).tobytes() == ref.position.tobytes()
    assert np.array(got.heading).tobytes() == ref.heading.tobytes()
    # same draws in the same order: both generators end in the same state
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pose=poses,
       angles=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
       depth=st.one_of(st.just(0.0), st.floats(0.0, 80.0)),
       speeds=st.lists(st.tuples(
           st.one_of(st.sampled_from([0.0, -0.0, 5.0]), st.floats(0.0, 20.0)),
           st.one_of(st.sampled_from([0.0, 2.0 * math.pi, -2.0 * math.pi]),
                     st.floats(-10.0, 10.0)),
       ), min_size=1, max_size=4),
       medium=st.sampled_from([GELATIN, BRAIN, LUNG, rigid_variant(GELATIN)]),
       dt=st.one_of(st.just(0.025), st.floats(1e-3, 0.05)))
def test_float_row_step_is_the_array_step_bitwise(pose, angles, depth,
                                                   speeds, medium, dt):
    base_angle, tip_roll = angles
    state = state_at(pose, base_angle, tip_roll, depth)
    ref = (pose, base_angle, tip_roll, depth, 0.0)
    for v, w in speeds:
        u = ControlInput(v, w)
        state = step(state, u, medium, dt)
        ref = reference_step(*ref[:4], u, medium, dt)
        p_ref, R_ref = ref[0]
        assert np.array(state.rows).tobytes() == R_ref.tobytes()
        assert np.array(state.p).tobytes() == p_ref.tobytes()
        assert struct.pack("<4d", *state[2:]) == struct.pack("<4d", *ref[1:])


def test_control_input_rejects_a_negative_insertion_speed():
    for args in ((-1.0, 0.0), (-1e-300, 2.0), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="insertion speed"):
            ControlInput(*args)
        with pytest.raises(ValueError, match="insertion speed"):
            ControlInput(insertion_speed=args[0], rotation_speed=args[1])
    with pytest.raises(ValueError, match="insertion speed"):
        ControlInput(5.0, 0.0)._replace(insertion_speed=-1.0)
    with pytest.raises(ValueError, match="insertion speed"):
        ControlInput._make((-1.0, 0.0))
    # what the check let through before: zero of either sign, and NaN
    for v in (0.0, -0.0, math.nan, 5.0):
        assert ControlInput(v, 1.0)[0] is v


def test_tick_values_are_immutable():
    values = (initial_state(), ControlInput(5.0, 1.0),
              SensedTip((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)))
    for value in values:
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            value.extra = 0.0
