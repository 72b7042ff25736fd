"""Ground-truth needle simulator.

A bevel-tip needle inserted with speed u_ins curves in its bevel plane with
constant curvature; rotating the base reorients that plane. The tip roll does
not follow the base instantly: the shaft acts as a torsional spring-damper
loaded by depth-proportional Coulomb friction, so the tip sticks until the
wind-up torque beats the friction torque, then slips. That lag between base
angle and tip roll is the quantity the estimators in this package compete to
recover.

Conventions: world frame has +z along the insertion axis at the entry point.
In the tip body frame the needle curves toward +x (the bevel direction), so
the bending rate is curvature * insertion_speed about body +y. All dynamics
are deterministic; randomness enters only through sense() and
sample_target().

A tick follows se3's kernel convention and builds no array: the tick values
PlantState, ControlInput and SensedTip are named tuples of floats, the
rotation three float rows.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from needleroll.se3 import (
    floats3,
    heading_tangent_basis,
    recompose_roll,
    se3_exp,
    so3_exp,
)


@dataclass(frozen=True)
class MediumParams:
    """Tissue/medium parameters for one simulated insertion.

    torsion_stiffness k (N*mm/rad), torsion_damping c (N*mm*s/rad) and
    friction_per_depth mu (N*mm/rad per mm) define the lag dynamics; the
    stick band half-width at depth d is mu*d/k radians. Explicit-Euler
    stability of the slip phase needs dt*k/c < 1; tests/test_plant.py
    holds every MEDIUM_PRESETS medium to it at dt = 1 / CONTROLLER.rate,
    and to a curvature of WORKSPACE.bounding_curvature, the one the
    target cone is drawn for.
    """

    name: str
    curvature: float  # 1/mm
    torsion_stiffness: float
    torsion_damping: float
    friction_per_depth: float
    position_noise: float  # mm, per axis
    heading_noise: float  # rad
    rigid: bool = False

    def __post_init__(self):
        check_ranges(self, positive=("curvature", "torsion_stiffness",
                                     "torsion_damping"),
                     nonnegative=("friction_per_depth", "position_noise",
                                  "heading_noise"))


def check_ranges(params, positive=(), nonnegative=()):
    """Raise ValueError naming the first field of params outside 0 < x <
    inf (the positive names) or 0 <= x < inf (the nonnegative ones). NaN
    fails both: a config file or a JSON line can carry NaN and Infinity."""
    for name in positive:
        value = getattr(params, name)
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"{name} must be finite and positive, not {value!r}")
    for name in nonnegative:
        value = getattr(params, name)
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"{name} must be finite and nonnegative, not {value!r}")


# Training medium. Friction is set high enough that the stick band at full
# depth (mu*d/k, 4.5 rad at 75 mm) makes roll-blind dead reckoning miss by
# millimetres while pose-informed steering still lands under 0.25 mm.
GELATIN = MediumParams(
    name="gelatin",
    curvature=0.005,
    torsion_stiffness=2.0,
    torsion_damping=0.1,
    friction_per_depth=0.12,
    position_noise=0.3,
    heading_noise=0.005,
)

# +50% friction, -30% shaft stiffness relative to the training medium
BRAIN = MediumParams(
    name="brain",
    curvature=0.005,
    torsion_stiffness=1.4,
    torsion_damping=0.1,
    friction_per_depth=0.18,
    position_noise=0.3,
    heading_noise=0.005,
)

# +150% friction and a noisier sensor environment
LUNG = MediumParams(
    name="lung",
    curvature=0.005,
    torsion_stiffness=2.0,
    torsion_damping=0.1,
    friction_per_depth=0.30,
    position_noise=0.5,
    heading_noise=0.01,
)


def rigid_variant(medium: MediumParams) -> MediumParams:
    """Same medium with the torsion lag switched off (tip roll == base
    angle), named rigid-<name> so no view pools it with the compliant one."""
    return dataclasses.replace(medium, name=f"rigid-{medium.name}", rigid=True)


MEDIUM_PRESETS = {m.name: m for base in (GELATIN, BRAIN, LUNG)
                  for m in (base, rigid_variant(base))}


class ControlInput(NamedTuple("ControlInput", [("insertion_speed", float),
                                               ("rotation_speed", float)])):
    """Insertion speed (mm/s, >= 0) and base rotation speed (rad/s); every
    way to build one, _make and _replace included, checks the speed."""

    __slots__ = ()

    def __new__(cls, insertion_speed: float, rotation_speed: float):
        if insertion_speed < 0.0:
            raise ValueError("insertion speed must be nonnegative")
        return tuple.__new__(cls, (insertion_speed, rotation_speed))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PlantState(NamedTuple):
    """Simulator state. base_angle and tip_roll are unwrapped accumulators;
    wrapping happens only at interfaces (pose roll, features, errors)."""

    rows: tuple  # world_from_body rotation, three rows of three floats
    p: tuple  # tip position, three floats, mm
    base_angle: float
    tip_roll: float
    depth: float
    tip_roll_rate: float


def initial_state() -> PlantState:
    return PlantState(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                      (0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0)


class SensedTip(NamedTuple):
    """5-DOF measurement: position and heading, three floats each; no roll."""

    position: tuple
    heading: tuple


HEADING_NORM_TOLERANCE = 1e-6


def require_valid_measurement(meas: SensedTip, base_angle: float):
    """Raise ValueError on a NaN or infinite reading, which an estimator
    would otherwise turn silently into a NaN pose, or on a heading whose
    norm is off 1 by more than HEADING_NORM_TOLERANCE, which the unit-vector
    geometry downstream assumes."""
    p0, p1, p2 = floats3(meas.position)
    h0, h1, h2 = floats3(meas.heading)
    hh = h0 * h0 + h1 * h1 + h2 * h2
    # one scalar test per tick: readings are nowhere near overflow, so the
    # sum is finite exactly when every term is
    if not math.isfinite(p0 + p1 + p2 + hh + base_angle):
        raise ValueError("non-finite measurement or base angle")
    if not abs(math.sqrt(hh) - 1.0) <= HEADING_NORM_TOLERANCE:
        raise ValueError(f"heading is not unit-norm (norm {math.sqrt(hh)!r})")


# bevel arcs are cached by the bits of (insertion_speed, curvature, dt), not
# their values: -0.0 == 0.0, yet a -0.0 speed gives the arc a -0.0 heading
# component. A run needs one arc per speed and medium.
_ARC_KEY = struct.Struct("<3d")


@functools.lru_cache(maxsize=16)
def _bevel_arc(key: bytes):
    """Body-frame translation and heading of the constant-twist arc."""
    insertion_speed, curvature, dt = _ARC_KEY.unpack(key)
    arc_R, arc_p = se3_exp(
        [0.0, 0.0, insertion_speed, 0.0, curvature * insertion_speed, 0.0], dt
    )
    return arc_p, (arc_R[0][2], arc_R[1][2], arc_R[2][2])


def tip_step(insertion_speed: float, curvature: float, delta: float,
             dt: float):
    """Translation and new heading of one pose step, both in the pre-step
    body frame: the roll change delta about body z (rot_z(delta) applied to
    both), then the bevel arc, which is computed once per (insertion_speed,
    curvature, dt)."""
    (p0, p1, p2), (h0, h1, h2) = _bevel_arc(
        _ARC_KEY.pack(insertion_speed, curvature, dt))
    c, s = math.cos(delta), math.sin(delta)
    return ((c * p0 - s * p1, s * p0 + c * p1, p2),
            (c * h0 - s * h1, s * h0 + c * h1, h2))


def advance_tip_pose(rows, p, move, roll_new: float):
    """One pose step from the rotation's rows and the position p, three
    floats: apply move, tip_step's result for the roll change to roll_new,
    then the bevel arc. Returns the new rotation's rows and position, as
    floats.

    The new rotation is rebuilt as (minimal rotation to the new heading) *
    rot_z(roll_new), so the pose's roll component equals the scalar roll
    state exactly at every step rather than drifting apart through frame
    transport. Shared by the simulator and by any observer propagating the
    same torsion-free kinematics.
    """
    (q0, q1, q2), (m0, m1, m2) = move
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    p0, p1, p2 = p
    # dot3(row, m) and p + dot3(row, m_p), written out
    return (recompose_roll((r00 * m0 + r01 * m1 + r02 * m2,
                            r10 * m0 + r11 * m1 + r12 * m2,
                            r20 * m0 + r21 * m1 + r22 * m2), roll_new),
            (p0 + (r00 * q0 + r01 * q1 + r02 * q2),
             p1 + (r10 * q0 + r11 * q1 + r12 * q2),
             p2 + (r20 * q0 + r21 * q1 + r22 * q2)))


def step(state: PlantState, u: ControlInput, medium: MediumParams,
         dt: float) -> PlantState:
    """Advance the plant one control period. Deterministic.

    Base angle integrates the commanded rotation speed. The tip roll then
    takes one stick/slip sub-step: with wind-up torque tau = k*(alpha -
    theta) and breakaway torque mu*depth, the tip holds still inside the
    friction band and otherwise slips at (tau - breakaway*sign(tau))/c.
    Finally the pose advances along the bevel arc at the new roll.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    alpha = state.base_angle + u.rotation_speed * dt
    if medium.rigid:
        roll = alpha
        rate = u.rotation_speed
    else:
        torque = medium.torsion_stiffness * (alpha - state.tip_roll)
        breakaway = medium.friction_per_depth * state.depth
        if abs(torque) <= breakaway:
            rate = 0.0
        else:
            rate = (torque - math.copysign(breakaway, torque)) / medium.torsion_damping
        roll = state.tip_roll + rate * dt
    move = tip_step(u.insertion_speed, medium.curvature,
                    roll - state.tip_roll, dt)
    rows, p = advance_tip_pose(state.rows, state.p, move, roll)
    return PlantState(rows, p, alpha, roll,
                      state.depth + u.insertion_speed * dt, rate)


def sense(state: PlantState, medium: MediumParams, rng) -> SensedTip:
    """Noisy 5-DOF observation of the tip: position and heading, never roll.

    Position gets iid gaussian noise per axis. The heading is tilted by a
    gaussian angle about a uniformly random axis perpendicular to it, then
    re-normalized. Draw order (3 position, tilt, axis azimuth) is part of
    the determinism contract. The four gaussians come from one
    standard_normal draw as 0.0 + sigma * z, which is rng.normal(0.0,
    sigma)'s loc + scale * z, bit for bit and in the same order; the
    azimuth has rng.uniform(0, 2 pi)'s bits.
    """
    z0, z1, z2, z3 = rng.standard_normal(4).tolist()
    sigma = medium.position_noise
    n0, n1, n2 = 0.0 + sigma * z0, 0.0 + sigma * z1, 0.0 + sigma * z2
    p0, p1, p2 = state.p
    (_, _, e0), (_, _, e1), (_, _, e2) = state.rows
    eta = (e0, e1, e2)
    tilt = 0.0 + medium.heading_noise * z3
    azimuth = 2.0 * math.pi * rng.random()
    (b10, b11, b12), (b20, b21, b22) = heading_tangent_basis(eta)
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = so3_exp(
        ((ca * b10 + sa * b20) * tilt, (ca * b11 + sa * b21) * tilt,
         (ca * b12 + sa * b22) * tilt))
    # unit3 of the rows dotted with eta, written out
    h0 = s00 * e0 + s01 * e1 + s02 * e2
    h1 = s10 * e0 + s11 * e1 + s12 * e2
    h2 = s20 * e0 + s21 * e1 + s22 * e2
    n = math.sqrt(h0 * h0 + h1 * h1 + h2 * h2)
    return SensedTip((p0 + n0, p1 + n1, p2 + n2), (h0 / n, h1 / n, h2 / n))


@dataclass(frozen=True)
class WorkspaceCone:
    """Reachable trumpet: depths in [depth_min, depth_max], radial offset
    bounded by a constant-curvature arc at bounding_curvature.

    radial_margin < 1 keeps sampled targets off the exact boundary, which a
    controller that must first unwind its initial roll cannot reach.
    min_offset keeps them off the entry axis: a target within sensor noise
    of the axis needs no steering decision and only measures that noise.
    """

    depth_min: float = 40.0
    depth_max: float = 75.0
    bounding_curvature: float = 0.005
    radial_margin: float = 0.9
    min_offset: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.depth_min < self.depth_max < math.inf:
            raise ValueError("need 0 < depth_min < depth_max < inf")
        check_ranges(self, nonnegative=("bounding_curvature", "min_offset"))
        if not 0.0 < self.radial_margin <= 1.0:
            raise ValueError("radial margin must be in (0, 1]")


# the one workspace targets are drawn from; tests vary sample_target's cone
WORKSPACE = WorkspaceCone()


def max_radial_offset(cone: WorkspaceCone, z: float) -> float:
    """Offset of a constant-curvature arc when it reaches depth z."""
    kappa = cone.bounding_curvature
    if kappa <= 0.0:
        return 0.0
    kz = min(kappa * z, 1.0)
    return (1.0 - math.sqrt(max(0.0, 1.0 - kz * kz))) / kappa


def sample_target(cone: WorkspaceCone, rng) -> np.ndarray:
    """Uniform draw from the trumpet: uniform depth, uniform over the
    annulus between min_offset and the reachable offset at that depth
    (scaled by radial_margin)."""
    z = rng.uniform(cone.depth_min, cone.depth_max)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    outer = max_radial_offset(cone, z) * cone.radial_margin
    # min_offset yields to a tight cone rather than inverting the annulus
    inner = min(cone.min_offset, 0.5 * outer)
    radius = math.sqrt(inner * inner
                       + (outer * outer - inner * inner) * rng.uniform())
    return np.array([radius * math.cos(azimuth), radius * math.sin(azimuth), z])
