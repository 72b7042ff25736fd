"""Error-state extended Kalman filter over torsion-free needle kinematics.

The filter assumes commanded base rotation reaches the tip instantly: its
mean is propagated through exactly the same pose step as the simulator's
rigid mode. No torsion lag appears in the model by construction, which is
what makes this the baseline the learned estimator competes against.

State: position (mm, world frame) and rotation (3x3, world from body,
held as its rows). Uncertainty lives in a 6-vector error state (dp: world
translation; dphi: body-frame rotation vector, R_true = R_mean @
exp(skew(dphi))). The body-z component of dphi is exactly the roll error,
so covariance entry (5, 5) is the roll variance. The 5-DOF measurement
observes position plus heading-tangent coordinates; the body-z direction
is structurally unobservable (the heading Jacobian annihilates it).

EkfRollTracker runs the filter as a closed-loop estimator.

A tick follows the convention of se3's kernels and plant.PlantState: the
mean is floats, its position three floats and its rotation three float rows,
and only the covariance is an array. The Jacobian entries, the mean
rotation and the tangent basis become arrays in one np.array call each, where
a covariance product or the update's rotation product needs them; predict
reads the prior's rows and decomposition once, and transition_jacobian
writes its dot3/unit3/cross3 calls out in the helpers' operation order, as
plant.advance_tip_pose does. Every product that feeds the mean or the
covariance is one BLAS call through ndarray.dot, on the operand layouts it
always had: BLAS fuses multiply-adds, and its rounding depends on operand
layout, so neither float products nor a re-laid-out operand give the same
bits. On float matrices and vectors dot makes the cblas call (gemm or gemv)
the @ operator, the matmul gufunc, makes on the same operands, so it gives
@'s bits at about half the per-call dispatch cost; the tests hold each
product to its @ formula. The mean rotation needs no re-orthonormalising:
each predict rebuilds it from heading and roll, so update's roundoff cannot
build up.

EkfState is a validating named tuple, built the way plant.ControlInput is:
its constructor, _make and _replace all take the position and the rotation
as floats (a tick's float tuples, lists or arrays alike), check the rotation
and the covariance, and keep the three floats and three float rows as
tuples. update takes the gain from the LAPACK gesv gufunc that
np.linalg.solve wraps, so the gain has solve's bits without the wrapper's
per-call checks. A singular innovation covariance S therefore does not
raise inside the solve: it yields a NaN gain, with numpy's "invalid value"
RuntimeWarning, and the finite-gain check turns that into
SingularInnovation. Only a filter built by hand with zero noise reaches it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import solve as _solve

from needleroll.controller import CONTROLLER
from needleroll.plant import (
    ControlInput,
    MediumParams,
    SensedTip,
    advance_tip_pose,
    require_valid_measurement,
    tip_step,
)
from needleroll.se3 import (
    decompose_roll,
    floats3,
    heading_tangent_basis,
    so3_exp,
)


_EYE6 = np.eye(6)
_EYE6.flags.writeable = False


class SingularInnovation(RuntimeError):
    """Innovation covariance not invertible; noise configuration is broken."""


class EkfState(NamedTuple("EkfState", [("position", tuple),
                                       ("rotation", tuple),
                                       ("covariance", np.ndarray)])):
    """Position, three floats (mm); rotation, three float rows (world from
    body); covariance, a (6, 6) float array over (dp, dphi). Every way to
    build one, _make and _replace included, converts and checks them."""

    __slots__ = ()

    def __new__(cls, position, rotation, covariance):
        # float() keeps a float as it is; arrays and lists unpack alike
        try:
            x, y, z = position
            position = (float(x), float(y), float(z))
        except (TypeError, ValueError):
            raise ValueError("position must be three floats") from None
        try:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rotation
            a0, a1, a2 = float(a0), float(a1), float(a2)
            b0, b1, b2 = float(b0), float(b1), float(b2)
            c0, c1, c2 = float(c0), float(c1), float(c2)
        except (TypeError, ValueError):
            raise ValueError("rotation must be 3x3") from None
        # unit rows, orthogonal pairs and det 1: dot3 and cross3, inlined;
        # each gap within 1e-9, where NaN fails
        if not (abs(a0 * a0 + a1 * a1 + a2 * a2 - 1.0) <= 1e-9
                and abs(b0 * b0 + b1 * b1 + b2 * b2 - 1.0) <= 1e-9
                and abs(c0 * c0 + c1 * c1 + c2 * c2 - 1.0) <= 1e-9
                and abs(a0 * b0 + a1 * b1 + a2 * b2) <= 1e-9
                and abs(a0 * c0 + a1 * c1 + a2 * c2) <= 1e-9
                and abs(b0 * c0 + b1 * c1 + b2 * c2) <= 1e-9
                and abs((a1 * b2 - a2 * b1) * c0 + (a2 * b0 - a0 * b2) * c1
                        + (a0 * b1 - a1 * b0) * c2 - 1.0) <= 1e-9):
            raise ValueError("rotation must be orthonormal and right-handed")
        # np.asarray keeps a float array as it is, the caller's array
        C = np.asarray(covariance, dtype=float)
        if C.shape != (6, 6):
            raise ValueError("covariance must be 6x6")
        # predict and update leave C bitwise symmetric, which settles
        # allclose unless an entry is NaN: a NaN can mirror itself bitwise,
        # so a NaN sum (also from +inf and -inf) leaves it to allclose
        mirrored = C.tobytes() == C.T.tobytes()
        if not ((mirrored and not math.isnan(sum(C.ravel().tolist())))
                or np.allclose(C, C.T, atol=1e-9)):
            raise ValueError("covariance must be symmetric")
        return tuple.__new__(cls, (position, ((a0, a1, a2), (b0, b1, b2),
                                              (c0, c1, c2)), C))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def init_state() -> EkfState:
    """Filter initialized at the plant's entry pose, the identity, with a
    small uncertainty."""
    return EkfState((0.0, 0.0, 0.0),
                    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                    1e-4 * _EYE6)


def default_process_noise() -> np.ndarray:
    """Continuous-time process noise density: 0.01 mm^2/s on the
    translation and 0.01 rad^2/s on the rotation diagonal."""
    return np.diag([0.01] * 6)


def measurement_noise_for(position_noise: float,
                          heading_noise: float) -> np.ndarray:
    """5x5 measurement covariance matched to the plant's sensor model.

    A tilt of gaussian angle about a uniformly random perpendicular axis has
    per-tangent-component variance heading_noise^2 / 2.
    """
    tangent_var = 0.5 * heading_noise * heading_noise
    return np.diag([position_noise**2] * 3 + [tangent_var] * 2)


def align_jacobian(eta) -> np.ndarray:
    """d/d_eta of the rotation vector of the minimal z-to-eta rotation.

    Maps a heading perturbation d_eta (tangent to the sphere at eta) to rho
    with skew(rho) = A(eta)^T dA(eta). Differentiates the closed form A = I
    + skew(a) + skew(a)^2/(1+c), a = z x eta, c = z . eta: along eta_x and
    eta_y, dA = dK + (dK K + K dK)/(1+c) with dK a constant skew matrix;
    along eta_z, dA = -K^2/(1+c)^2. The result is a polynomial in eta and
    k = 1/(1+c); defined for every heading except antiparallel to z.
    """
    return np.array(_align_jacobian_entries(*eta)).reshape(3, 3)


def _align_jacobian_entries(e0: float, e1: float, e2: float) -> tuple:
    """The nine entries of align_jacobian at (e0, e1, e2), row by row."""
    k = 1.0 / (1.0 + e2)
    q = k * k * (e0 * e0 + e1 * e1)
    return (-k * e0 * e1, -1.0 - k * e1 * e1, e1 * q,
            1.0 + k * e0 * e0, k * e0 * e1, -e0 * q,
            *_align_jacobian_row2(e0, e1, e2))


def _align_jacobian_row2(e0: float, e1: float, e2: float) -> list:
    """Third row of align_jacobian at (e0, e1, e2): (e1, -e0, 0) (1 + q)/2
    with q = (e0^2 + e1^2) / (1 + e2)^2."""
    k = 1.0 / (1.0 + e2)
    h = 0.5 * (1.0 + k * k * (e0 * e0 + e1 * e1))
    return [e1 * h, -e0 * h, 0.0]


def transition_jacobian(rows, eta, roll_new: float, move) -> np.ndarray:
    """Exact 6x6 Jacobian of the rigid pose step w.r.t. (dp, dphi), at the
    pre-step rotation R given by its float rows and its heading eta, for the
    step move = tip_step(...) to the roll roll_new.

    move's (m_p, m) are the step's translation and new-heading direction
    expressed in the pre-step body frame. The orientation error transports
    through the minimal-rotation frame at the new heading (via
    align_jacobian), with the roll error re-injected about body z.
    """
    (q0, q1, q2), (m0, m1, m2) = move
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    # eta_new = unit3 of the rows dotted with m, written out
    n0 = r00 * m0 + r01 * m1 + r02 * m2
    n1 = r10 * m0 + r11 * m1 + r12 * m2
    n2 = r20 * m0 + r21 * m1 + r22 * m2
    n = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2)

    # roll sensitivity d(roll)/d(dphi) at the pre-step state:
    # e_z + (e_z^T align_jacobian(eta) R) skew(e_z); s0 and s1, the first
    # two entries of g^T R, are dot3(g, column of R), written out without
    # g's third entry, which is 0
    g0, g1, _ = _align_jacobian_row2(*eta)
    s0 = g0 * r00 + g1 * r10
    s1 = g0 * r01 + g1 * r11

    # D = rot_z(-roll_new) align_jacobian(eta_new) N + e_z jr^T, where row i
    # of N = -(R skew(m)) is cross3(m, R[i]); the three factors are the
    # C-contiguous slices of one (3, 3, 3) array, laid out as three lone
    # 3x3 arrays are
    c, s = math.cos(-roll_new), math.sin(-roll_new)
    Z, A, N = np.array((c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0,
                        *_align_jacobian_entries(n0 / n, n1 / n, n2 / n),
                        m1 * r02 - m2 * r01, m2 * r00 - m0 * r02,
                        m0 * r01 - m1 * r00,
                        m1 * r12 - m2 * r11, m2 * r10 - m0 * r12,
                        m0 * r11 - m1 * r10,
                        m1 * r22 - m2 * r21, m2 * r20 - m0 * r22,
                        m0 * r21 - m1 * r20)).reshape(3, 3, 3)
    d0, d1, (d20, d21, d22) = Z.dot(A).dot(N).tolist()

    # [[I, -(R skew(m_p))], [0, D]], built flat; row i of the top right
    # block is cross3(m_p, R[i])
    return np.array((1.0, 0.0, 0.0, q1 * r02 - q2 * r01, q2 * r00 - q0 * r02,
                     q0 * r01 - q1 * r00,
                     0.0, 1.0, 0.0, q1 * r12 - q2 * r11, q2 * r10 - q0 * r12,
                     q0 * r11 - q1 * r10,
                     0.0, 0.0, 1.0, q1 * r22 - q2 * r21, q2 * r20 - q0 * r22,
                     q0 * r21 - q1 * r20,
                     0.0, 0.0, 0.0, *d0,
                     0.0, 0.0, 0.0, *d1,
                     0.0, 0.0, 0.0, d20 + s1, d21 - s0, d22 + 1.0)).reshape(6, 6)


def predict(state: EkfState, u: ControlInput, curvature: float, dt: float,
            process_noise: np.ndarray) -> EkfState:
    """Propagate mean and covariance through the rigid kinematic step.

    The commanded rotation speed is applied directly as tip roll rate (the
    torsion-blind assumption). The covariance uses the exact Jacobian of the
    pose step with respect to the (dp, dphi) error state, at the roll
    increment the mean steps by.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rows = state.rotation
    eta, roll = decompose_roll(rows)
    roll_new = roll + u.rotation_speed * dt
    move = tip_step(u.insertion_speed, curvature, roll_new - roll, dt)
    R_new, p_new = advance_tip_pose(rows, state.position, move, roll_new)
    F = transition_jacobian(rows, eta, roll_new, move)
    cov = F.dot(state.covariance).dot(F.T) + process_noise * dt
    # 0.5 (cov + cov^T), halved in place: one temporary fewer, same bits
    cov_sym = cov + cov.T
    cov_sym *= 0.5
    return EkfState(p_new, R_new, cov_sym)


def measurement_jacobian(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """5x6 Jacobian of (position, B^T heading) w.r.t. (dp, dphi):
    -(B^T R skew(e_z)) in the heading rows, whose row k is (-s_1, s_0, 0)
    for s = R^T b_k."""
    (s00, s01, _), (s10, s11, _) = B.T.dot(R).tolist()
    return np.array((1.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 0.0, -s01, s00, 0.0,
                     0.0, 0.0, 0.0, -s11, s10, 0.0)).reshape(5, 6)


def update(state: EkfState, meas: SensedTip,
           measurement_noise: np.ndarray) -> EkfState:
    """Standard EKF update with the heading residual taken in the 2-D
    tangent plane at the predicted heading. Joseph-form covariance."""
    rows = state.rotation
    (_, _, ex), (_, _, ey), (_, _, ez) = rows
    # the one C-contiguous array of the mean rotation, for both its products
    R = np.array(rows)
    # the F-contiguous transpose of the (2, 3) basis: BLAS rounding depends
    # on operand layout, so B keeps the layout every residual was made with
    B = np.array(heading_tangent_basis((ex, ey, ez))).T
    H = measurement_jacobian(R, B)

    # a float difference rounds as numpy's does, so only the tangent
    # projection needs an array: the (3,) operand its rounding is tested on
    (mx, my, mz), (hx, hy, hz) = floats3(meas.position), floats3(meas.heading)
    px, py, pz = state.position
    u, v = np.array([hx - ex, hy - ey, hz - ez]).dot(B).tolist()
    residual = np.array([mx - px, my - py, mz - pz, u, v])
    P = state.covariance
    HP = H.dot(P)
    # the gesv gufunc np.linalg.solve calls, so its bits, without the
    # wrapper; a singular S comes out NaN, with numpy's RuntimeWarning
    gain = _solve(HP.dot(H.T) + measurement_noise, HP, signature="dd->d").T
    # gains are nowhere near overflow: the sum is finite iff every entry
    # is (gain.T, solve's own C-ordered array, ravels without a copy)
    if not math.isfinite(sum(gain.T.ravel().tolist())):
        raise SingularInnovation("non-finite Kalman gain")

    c0, c1, c2, *dphi = gain.dot(residual).tolist()
    p_new = (px + c0, py + c1, pz + c2)
    R_new = R.dot(np.array(so3_exp(dphi))).tolist()

    IKH = _EYE6 - gain.dot(H)
    cov = IKH.dot(P).dot(IKH.T) + gain.dot(measurement_noise).dot(gain.T)
    # 0.5 (cov + cov^T), halved in place: one temporary fewer, same bits
    cov_sym = cov + cov.T
    cov_sym *= 0.5
    return EkfState(p_new, R_new, cov_sym)


def roll_variance(state: EkfState) -> float:
    """Variance of the roll error: the body-z rotational diagonal entry."""
    return float(state.covariance[5, 5])


class EkfRollTracker:
    """Filter-in-the-loop adapter: feeds commanded motion and 5-DOF
    measurements to the Kalman filter and returns its mean pose as (rows, p),
    the state's own float rows and floats.

    The commanded rotation over the last period is recovered from the base
    angle the loop supplies; the filter applies it directly as tip roll
    (the torsion-blind assumption under test)."""

    def __init__(self, medium: MediumParams):
        self.curvature = medium.curvature
        self.insertion_speed = CONTROLLER.insertion_speed
        self.dt = 1.0 / CONTROLLER.rate
        self.process_noise = default_process_noise()
        self.measurement_noise = measurement_noise_for(
            medium.position_noise, medium.heading_noise)
        self.state = init_state()
        self.last_base_angle = None

    def estimate(self, meas: SensedTip, base_angle: float):
        require_valid_measurement(meas, base_angle)
        if self.last_base_angle is not None:
            u = ControlInput(self.insertion_speed,
                             (base_angle - self.last_base_angle) / self.dt)
            self.state = predict(self.state, u, self.curvature, self.dt,
                                 self.process_noise)
        self.last_base_angle = base_angle
        self.state = state = update(self.state, meas, self.measurement_noise)
        return state.rotation, state.position
