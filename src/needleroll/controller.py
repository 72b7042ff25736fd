"""Sliding-mode steering law.

The needle curves toward body +x (see plant module), so steering reduces to
rolling the tip until the target sits in the +x half of the bevel plane and
inserting. The roll error is the angle of the target's projection onto the
tip's x-y plane; the controller applies full-magnitude base rotation against
the sign of that error (bang-bang with a small deadband) while inserting at
constant speed.

The controller is estimator-agnostic: it only sees a tip pose, however that
pose was produced (ground truth, filter mean, or learned roll recomposed
onto the sensed heading).

A tick is scalar arithmetic on Python floats, under se3's kernel
convention: control takes the pose as three float rows and three floats,
and the target as three floats, and builds no array; nor does
targeting_error on the tuples a closed loop ends with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from needleroll.plant import ControlInput, check_ranges
from needleroll.se3 import floats3, wrap_angle


@dataclass(frozen=True)
class ControllerParams:
    insertion_speed: float = 5.0  # mm/s
    rotation_speed: float = 2.0 * math.pi  # rad/s, bang-bang magnitude
    rate: float = 40.0  # Hz
    deadband: float = 0.05  # rad, |error| below this stops rotating
    arrival_tolerance: float = 0.25  # mm

    def __post_init__(self):
        check_ranges(self, positive=("insertion_speed", "rotation_speed",
                                     "rate"),
                     nonnegative=("deadband", "arrival_tolerance"))


# the one steering law of every closed loop; tests vary `control`'s params
CONTROLLER = ControllerParams()


@dataclass(frozen=True)
class Arrived:
    """Terminal outcome: target reached or passed behind the tip plane."""

    distance: float


def control(rows, p, target, params: ControllerParams):
    """One controller tick on the estimated tip pose, given as the
    rotation's rows and the position p: ControlInput, or Arrived to stop.

    Works on the target's offset in the tip body frame, R^T (target - p).
    Stops when the target is within arrival_tolerance or no longer ahead of
    the tip plane (overshoot would otherwise grow the error forever): the
    third tip-frame coordinate is the offset along the heading.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    p0, p1, p2 = p
    t0, t1, t2 = target
    o0, o1, o2 = t0 - p0, t1 - p1, t2 - p2
    distance = math.sqrt(o0 * o0 + o1 * o1 + o2 * o2)
    if (distance <= params.arrival_tolerance
            or r02 * o0 + r12 * o1 + r22 * o2 <= 0.0):
        return Arrived(distance=distance)
    # roll error: positive when the target is counterclockwise of the bevel
    err = wrap_angle(math.atan2(r01 * o0 + r11 * o1 + r21 * o2,
                                r00 * o0 + r10 * o1 + r20 * o2))
    spin = (math.copysign(params.rotation_speed, err)
            if abs(err) > params.deadband else 0.0)
    return ControlInput(params.insertion_speed, spin)


def targeting_error(final_tip, target) -> float:
    """Euclidean distance between the final tip position and the target,
    on floats as control computes its distance."""
    (p0, p1, p2), (t0, t1, t2) = floats3(final_tip), floats3(target)
    o0, o1, o2 = t0 - p0, t1 - p1, t2 - p2
    return math.sqrt(o0 * o0 + o1 * o1 + o2 * o2)
