"""Steerable-needle tip-roll estimation and closed-loop steering workbench."""

from needleroll.se3 import (
    AntiparallelHeading,
    DegenerateConfiguration,
    Pose,
    angular_error,
    decompose_roll,
    recompose_roll,
    register_points,
    se3_exp,
    so3_exp,
    wrap_angle,
)

__all__ = [
    "AntiparallelHeading",
    "DegenerateConfiguration",
    "Pose",
    "angular_error",
    "decompose_roll",
    "recompose_roll",
    "register_points",
    "se3_exp",
    "so3_exp",
    "wrap_angle",
]

__version__ = "0.1.0"
