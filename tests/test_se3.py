import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from needleroll.se3 import (
    AntiparallelHeading,
    DegenerateConfiguration,
    angular_error,
    decompose_roll,
    recompose_roll,
    register_points,
    se3_exp,
    so3_exp,
    wrap_angle,
)
from oracles import quat_from_matrix, rot_z

EZ = np.array([0.0, 0.0, 1.0])


def rot_x(a: float) -> np.ndarray:
    return np.array(so3_exp([a, 0.0, 0.0]))


def random_rotation(rng) -> np.ndarray:
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(0.0, math.pi)
    return np.array(so3_exp(w.tolist()))


# ---------------------------------------------------------------- wrap_angle

def test_wrap_angle_identity_inside_range():
    for a in [-3.0, -1.0, 0.0, 0.5, 3.1]:
        assert wrap_angle(a) == pytest.approx(a)


def test_wrap_angle_boundary_is_plus_pi():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
def test_wrap_angle_periodic_and_in_range(a, k):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.isclose(
        math.sin(w), math.sin(a), abs_tol=1e-9
    ) and math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
    assert wrap_angle(a + 2 * math.pi * k) == pytest.approx(w, abs=1e-9)


# ----------------------------------------------------------------- rotations

def test_elementary_rotations_match_scipy():
    for a in [-2.0, -0.3, 0.0, 0.7, 3.0]:
        expect = ScipyRotation.from_euler("z", a).as_matrix()
        assert np.allclose(rot_z(a), expect, atol=1e-12)


def test_so3_exp_matches_scipy_rotvec():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        assert np.allclose(
            so3_exp(w.tolist()), ScipyRotation.from_rotvec(w).as_matrix(), atol=1e-12
        )


def test_so3_exp_small_angle_series():
    w = np.array([1e-10, -2e-10, 5e-11])
    R = so3_exp(w.tolist())
    wx, wy, wz = w
    first_order = np.array([[1.0, -wz, wy], [wz, 1.0, -wx], [-wy, wx, 1.0]])
    assert np.allclose(R, first_order, atol=1e-15)  # I + skew(w)


def test_quat_from_matrix_agrees_with_scipy():
    rng = np.random.default_rng(4)
    for _ in range(100):
        R = random_rotation(rng)
        q = quat_from_matrix(R)  # (w, x, y, z), w >= 0
        qs = ScipyRotation.from_matrix(R).as_quat()  # (x, y, z, w)
        qs = np.array([qs[3], qs[0], qs[1], qs[2]])
        if qs[0] < 0:
            qs = -qs
        assert np.allclose(q, qs, atol=1e-9)


# --------------------------------------------------------------------- se3

def test_se3_exp_zero_twist_is_identity():
    R, p = se3_exp(np.zeros(6), dt=0.7)
    assert np.allclose(R, np.eye(3)) and np.allclose(p, 0.0)


def test_se3_exp_pure_translation():
    R, p = se3_exp([1.0, -2.0, 3.0, 0.0, 0.0, 0.0], dt=0.5)
    assert np.allclose(R, np.eye(3))
    assert np.allclose(p, [0.5, -1.0, 1.5])


def _integrate_twist_midpoint(twist, dt, n_steps):
    """Fine-step integration of a constant body twist.

    Midpoint (improved Euler) on the pose: independent check for the closed
    form. Second order, so n_steps = 1e4 reaches ~1e-10 for unit-scale
    twists.
    """
    v = np.asarray(twist[:3], dtype=float)
    w = np.asarray(twist[3:], dtype=float)
    h = dt / n_steps
    R = np.eye(3)
    p = np.zeros(3)
    for _ in range(n_steps):
        Rm = R @ np.array(so3_exp((w * h / 2.0).tolist()))
        p = p + Rm @ v * h
        R = R @ np.array(so3_exp((w * h).tolist()))
    return R, p


def test_se3_exp_matches_fine_step_integration():
    rng = np.random.default_rng(5)
    for _ in range(5):
        twist = rng.normal(size=6)
        dt = rng.uniform(0.3, 1.5)
        R_ref, p_ref = _integrate_twist_midpoint(twist, dt, 10_000)
        R, p = se3_exp(twist, dt)
        assert np.allclose(R, R_ref, atol=1e-7)
        assert np.allclose(p, p_ref, atol=1e-7)


# ------------------------------------------------------------ angular error

def quat_geodesic_angle(R1, R2) -> float:
    """Independent orientation-distance oracle via unit quaternions."""
    q1 = quat_from_matrix(R1)
    q2 = quat_from_matrix(R2)
    d = abs(float(np.dot(q1, q2)))
    return 2.0 * math.acos(min(1.0, d))


def test_angular_error_matches_quaternion_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        R1 = random_rotation(rng)
        R2 = random_rotation(rng)
        assert angular_error(R1, R2) == pytest.approx(
            quat_geodesic_angle(R1, R2), abs=1e-9
        )


def test_angular_error_extremes():
    R = rot_z(0.4) @ rot_x(1.0)
    assert angular_error(R, R) == 0.0
    assert angular_error(R.tolist(), R.tolist()) == 0.0
    assert angular_error(np.eye(3), rot_x(math.pi)) == pytest.approx(math.pi)


def test_angular_error_known_rotation():
    rot_y = np.array(so3_exp([0.0, 0.3, 0.0]))
    assert angular_error(np.eye(3), rot_y) == pytest.approx(0.3, abs=1e-12)


def test_angular_error_symmetric_and_left_invariant():
    rng = np.random.default_rng(18)
    for _ in range(50):
        A, B, Q = (random_rotation(rng) for _ in range(3))
        assert angular_error(A, B) == pytest.approx(angular_error(B, A), abs=1e-12)
        assert angular_error(Q @ A, Q @ B) == pytest.approx(
            angular_error(A, B), abs=1e-9
        )


# -------------------------------------------------------- roll decomposition

# at zero roll, recompose_roll(eta, 0) is the minimal rotation taking +z onto
# eta, the reference frame every roll angle is measured against

def test_align_from_z_maps_z_to_eta():
    rng = np.random.default_rng(10)
    for _ in range(100):
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta)
        if eta[2] < -0.99:
            continue
        A = np.array(recompose_roll(eta.tolist(), 0.0))
        assert np.allclose(A @ A.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(A @ EZ, eta, atol=1e-12)


def test_align_from_z_identity_at_z():
    assert np.allclose(recompose_roll(EZ, 0.0), np.eye(3), atol=1e-15)


def test_align_from_z_has_no_z_twist():
    # the minimal rotation keeps the transported x axis orthogonal to z x eta
    # rotated... simplest invariant: its rotation vector has zero z component
    # whenever eta is in the x-z plane, and generally lies along z cross eta.
    rng = np.random.default_rng(11)
    for _ in range(50):
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta)
        if eta[2] < -0.9:
            continue
        w = ScipyRotation.from_matrix(recompose_roll(eta, 0.0)).as_rotvec()
        axis_expect = np.cross(EZ, eta)
        n = np.linalg.norm(axis_expect)
        if n < 1e-9:
            continue
        axis_expect /= n
        w_n = w / np.linalg.norm(w)
        assert np.allclose(w_n, axis_expect, atol=1e-9)


def _bits(decomposed):
    (e0, e1, e2), roll = decomposed
    return np.array([e0, e1, e2, roll]).tobytes()


def test_decompose_recompose_roundtrip():
    """decompose_roll reads a rotation's float rows; the same matrix as an
    array gives the same bits, and recompose_roll inverts it."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        R = random_rotation(rng)
        if R[2, 2] < -0.9:
            continue
        eta, roll = decompose_roll(R.tolist())
        assert _bits(decompose_roll(R)) == _bits((eta, roll))
        assert -math.pi < roll <= math.pi
        R2 = recompose_roll(eta, roll)
        assert _bits(decompose_roll(np.array(R2))) == _bits(
            decompose_roll(R2))
        assert np.allclose(R2, R, atol=1e-10)


def test_recompose_then_decompose_recovers_roll():
    rng = np.random.default_rng(13)
    for _ in range(200):
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta)
        if eta[2] < -0.9:
            continue
        roll = rng.uniform(-math.pi + 1e-6, math.pi)
        eta2, roll2 = decompose_roll(recompose_roll(eta, roll))
        assert np.allclose(eta2, eta, atol=1e-12)
        assert roll2 == pytest.approx(roll, abs=1e-10)


def test_decompose_roll_pure_z_rotation():
    for a in [-2.0, -0.5, 0.0, 1.0, 3.0]:
        eta, roll = decompose_roll(rot_z(a))
        assert np.allclose(eta, EZ, atol=1e-15)
        assert roll == pytest.approx(wrap_angle(a), abs=1e-12)


def test_decompose_roll_tilted_no_twist():
    # a minimal rotation by itself carries zero roll
    eta_in = np.array([0.3, -0.2, 0.9])
    eta_in /= np.linalg.norm(eta_in)
    eta, roll = decompose_roll(recompose_roll(eta_in, 0.0))
    assert np.allclose(eta, eta_in, atol=1e-12)
    assert roll == pytest.approx(0.0, abs=1e-12)


def test_antiparallel_heading_raises():
    with pytest.raises(AntiparallelHeading):
        recompose_roll((0.0, 0.0, -1.0), 0.0)
    with pytest.raises(AntiparallelHeading):
        decompose_roll(rot_x(math.pi))


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4), st.floats(-3.1, 3.1))
def test_roll_decomposition_property(ax, ay, roll):
    """Tilt then twist: decomposition recovers the twist regardless of tilt."""
    tilt = np.array(so3_exp([ax, ay, 0.0]))
    if (tilt @ EZ)[2] < -0.9:
        return
    R = tilt @ rot_z(roll)
    eta, r = decompose_roll(R)
    assert np.allclose(eta, tilt @ EZ, atol=1e-9)
    # tilt about an axis in the x-y plane is exactly the minimal rotation
    assert r == pytest.approx(wrap_angle(roll), abs=1e-9)


# ------------------------------------------------------------- registration

def _frame_from_triangle(pts):
    """Orthonormal frame pinned to 3 points, no SVD involved."""
    p0, p1, p2 = pts
    x = p1 - p0
    x = x / np.linalg.norm(x)
    z = np.cross(x, p2 - p0)
    z = z / np.linalg.norm(z)
    y = np.cross(z, x)
    return np.column_stack([x, y, z]), p0


def test_register_points_recovers_random_transform():
    rng = np.random.default_rng(14)
    for _ in range(50):
        R = random_rotation(rng)
        t = rng.uniform(-50.0, 50.0, size=3)
        A = rng.uniform(-30.0, 30.0, size=(rng.integers(3, 10), 3))
        B = A @ R.T + t
        R_fit, t_fit, fre = register_points(A, B)
        assert np.allclose(R_fit, R, atol=1e-9)
        assert np.allclose(t_fit, t, atol=1e-7)
        assert fre < 1e-9


def test_register_points_matches_triangle_frame_oracle():
    # with exactly 3 exact correspondences the rigid map is unique, so the
    # SVD solution must equal the frame-to-frame construction
    rng = np.random.default_rng(15)
    for _ in range(50):
        A = rng.uniform(-20.0, 20.0, size=(3, 3))
        if np.linalg.norm(np.cross(A[1] - A[0], A[2] - A[0])) < 1.0:
            continue
        R = random_rotation(rng)
        t = rng.uniform(-10.0, 10.0, size=3)
        B = A @ R.T + t
        R_fit, t_fit, fre = register_points(A, B)
        Fa, pa = _frame_from_triangle(A)
        Fb, pb = _frame_from_triangle(B)
        R_oracle = Fb @ Fa.T
        t_oracle = pb - R_oracle @ pa
        assert np.allclose(R_fit, R_oracle, atol=1e-8)
        assert np.allclose(t_fit, t_oracle, atol=1e-6)
        assert fre < 1e-9


def test_register_points_noise_gives_positive_fre():
    rng = np.random.default_rng(16)
    A = rng.uniform(-30.0, 30.0, size=(8, 3))
    R = random_rotation(rng)
    B = A @ R.T + np.array([5.0, -2.0, 1.0]) + rng.normal(0.0, 0.5, size=(8, 3))
    R_fit, _, fre = register_points(A, B)
    assert 0.05 < fre < 2.0
    assert angular_error(R_fit, R) < 0.2


def test_register_points_rejects_degenerate_input():
    line = np.outer(np.linspace(0.0, 9.0, 10), np.array([1.0, 2.0, 0.5]))
    with pytest.raises(DegenerateConfiguration):
        register_points(line, line + 1.0)
    with pytest.raises(DegenerateConfiguration):
        register_points(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DegenerateConfiguration):
        register_points(np.zeros((4, 3)), np.zeros((5, 3)))


def test_register_points_proper_rotation_under_reflection_pressure():
    # near-planar data with noise tends to tempt an improper solution; the
    # determinant correction must keep det(R) = +1
    rng = np.random.default_rng(17)
    A = rng.uniform(-20.0, 20.0, size=(6, 3))
    A[:, 2] *= 1e-3
    R = random_rotation(rng)
    B = A @ R.T + rng.normal(0.0, 2.0, size=A.shape)
    R_fit, _, _ = register_points(A, B)
    assert np.linalg.det(R_fit) == pytest.approx(1.0, abs=1e-9)
