"""Error-state extended Kalman filter over torsion-free needle kinematics.

The filter assumes commanded base rotation reaches the tip instantly: its
mean is propagated through exactly the same pose step as the simulator's
rigid mode. No torsion lag appears in the model by construction, which is
what makes this the baseline the learned estimator competes against.

State: position (mm, world frame) and orientation (unit quaternion, world
from body). Uncertainty lives in a 6-vector error state (dp: world
translation; dphi: body-frame rotation vector, R_true = R_mean @
exp(skew(dphi))). The body-z component of dphi is exactly the roll error,
so covariance entry (5, 5) is the roll variance. The 5-DOF measurement
observes position plus heading-tangent coordinates; the body-z direction is
structurally unobservable (the heading Jacobian annihilates it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from needleroll.plant import ControlInput, SensedTip, advance_tip_pose
from needleroll.se3 import (
    EZ,
    Pose,
    align_from_z,
    decompose_roll,
    heading_tangent_basis,
    quat_from_matrix,
    quat_to_matrix,
    rot_z,
    se3_exp,
    skew,
    so3_exp,
)


class SingularInnovation(RuntimeError):
    """Innovation covariance not invertible; noise configuration is broken."""


@dataclass(frozen=True)
class EkfState:
    position: np.ndarray  # (3,) mm
    orientation: np.ndarray  # (4,) unit quaternion, (w, x, y, z)
    covariance: np.ndarray  # (6, 6) over (dp, dphi)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation",
                           np.asarray(self.orientation, dtype=float))
        object.__setattr__(self, "covariance",
                           np.asarray(self.covariance, dtype=float))
        if not abs(np.linalg.norm(self.orientation) - 1.0) <= 1e-9:  # NaN fails
            raise ValueError("orientation quaternion must be unit-norm")
        if self.covariance.shape != (6, 6):
            raise ValueError("covariance must be 6x6")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")


def init_state(entry_pose: Pose | None = None,
               variance: float = 1e-4) -> EkfState:
    """Filter initialized at a measured entry pose with small uncertainty."""
    pose = Pose.identity() if entry_pose is None else entry_pose
    return EkfState(
        position=pose.p,
        orientation=quat_from_matrix(pose.R),
        covariance=variance * np.eye(6),
    )


def default_process_noise(translation_rate: float = 0.01,
                          rotation_rate: float = 0.01) -> np.ndarray:
    """Continuous-time process noise density, mm^2/s and rad^2/s diagonals."""
    return np.diag([translation_rate] * 3 + [rotation_rate] * 3)


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
    + skew(a) + skew(a)^2/(1+c), a = z x eta, c = z . eta; defined for every
    heading except antiparallel to z.
    """
    eta = np.asarray(eta, dtype=float)
    A = align_from_z(eta)
    a = np.array([-eta[1], eta[0], 0.0])
    c = float(eta[2])
    K = skew(a)
    KK = K @ K
    cols = []
    for j in range(3):
        basis = np.zeros(3)
        basis[j] = 1.0
        da = np.cross(EZ, basis)
        dc = basis[2]
        dK = skew(da)
        dA = dK + (dK @ K + K @ dK) / (1.0 + c) - KK * (dc / (1.0 + c) ** 2)
        W = A.T @ dA
        cols.append(0.5 * np.array([W[2, 1] - W[1, 2],
                                    W[0, 2] - W[2, 0],
                                    W[1, 0] - W[0, 1]]))
    return np.column_stack(cols)


def transition_jacobian(R: np.ndarray, u: ControlInput, curvature: float,
                        dt: float) -> np.ndarray:
    """Exact 6x6 Jacobian of the rigid pose step w.r.t. (dp, dphi).

    m_p and m are the step's translation and new-heading direction expressed
    in the pre-step body frame. The orientation error transports through the
    minimal-rotation frame at the new heading (via align_jacobian), with the
    roll error re-injected about body z.
    """
    eta, roll = decompose_roll(R)
    delta = u.rotation_speed * dt
    roll_new = roll + delta
    arc_R, arc_p = se3_exp(
        [0.0, 0.0, u.insertion_speed, 0.0, curvature * u.insertion_speed, 0.0], dt
    )
    Rz = rot_z(delta)
    m_p = Rz @ arc_p
    m = Rz @ arc_R[:, 2]
    eta_new = R @ m
    eta_new = eta_new / np.linalg.norm(eta_new)

    # roll sensitivity: d(roll)/d(dphi) at the pre-step state
    jr = EZ + EZ @ align_jacobian(eta) @ R @ skew(EZ)
    D = rot_z(-roll_new) @ align_jacobian(eta_new) @ (-(R @ skew(m))) \
        + np.outer(EZ, jr)

    F = np.eye(6)
    F[:3, 3:] = -(R @ skew(m_p))
    F[3:, 3:] = D
    return F


def predict(state: EkfState, u: ControlInput, curvature: float, dt: float,
            process_noise: np.ndarray) -> EkfState:
    """Propagate mean and covariance through the rigid kinematic step.

    The commanded rotation speed is applied directly as tip roll rate (the
    torsion-blind assumption). The covariance uses the exact Jacobian of the
    pose step with respect to the (dp, dphi) error state.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    R = quat_to_matrix(state.orientation)
    _, roll = decompose_roll(R)
    roll_new = roll + u.rotation_speed * dt
    R_new, p_new = advance_tip_pose(
        R, state.position, u.insertion_speed, roll, roll_new, curvature, dt
    )
    F = transition_jacobian(R, u, curvature, dt)
    cov = F @ state.covariance @ F.T + process_noise * dt
    cov = 0.5 * (cov + cov.T)
    return EkfState(position=p_new, orientation=quat_from_matrix(R_new),
                    covariance=cov)


def measurement_jacobian(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """5x6 Jacobian of (position, B^T heading) w.r.t. (dp, dphi)."""
    H = np.zeros((5, 6))
    H[:3, :3] = np.eye(3)
    H[3:, 3:] = -(B.T @ R @ skew(EZ))
    return H


def update(state: EkfState, meas: SensedTip,
           measurement_noise: np.ndarray) -> EkfState:
    """Standard EKF update with the heading residual taken in the 2-D
    tangent plane at the predicted heading. Joseph-form covariance."""
    R = quat_to_matrix(state.orientation)
    eta_pred = R[:, 2]
    b1, b2 = heading_tangent_basis(eta_pred)
    B = np.column_stack([b1, b2])
    H = measurement_jacobian(R, B)

    residual = np.concatenate([
        np.asarray(meas.position, dtype=float) - state.position,
        B.T @ (np.asarray(meas.heading, dtype=float) - eta_pred),
    ])
    S = H @ state.covariance @ H.T + measurement_noise
    try:
        gain = np.linalg.solve(S, H @ state.covariance).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    if not np.all(np.isfinite(gain)):
        raise SingularInnovation("non-finite Kalman gain")

    correction = gain @ residual
    p_new = state.position + correction[:3]
    R_new = R @ so3_exp(correction[3:])

    IKH = np.eye(6) - gain @ H
    cov = IKH @ state.covariance @ IKH.T + gain @ measurement_noise @ gain.T
    cov = 0.5 * (cov + cov.T)
    return EkfState(position=p_new, orientation=quat_from_matrix(R_new),
                    covariance=cov)


def estimate_pose(state: EkfState) -> Pose:
    return Pose(state.position, quat_to_matrix(state.orientation))


def roll_variance(state: EkfState) -> float:
    """Variance of the roll error: the body-z rotational diagonal entry."""
    return float(state.covariance[5, 5])
