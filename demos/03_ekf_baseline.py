"""Why the torsion-blind filter fails: its roll estimate IS the base angle.

The error-state filter fuses position and heading measurements under a
rigid-transmission motion model, so nothing in its state can absorb
torsional lag. In a rigid medium that assumption holds and it steers
essentially as well as ground truth. In a compliant medium its roll
error reproduces the open-loop windup, and near the target there is not
enough insertion left to wind the bevel back through the stick band.
"""

import numpy as np

from needleroll.evaluate import run_trial
from needleroll.plant import MEDIUM_PRESETS, WORKSPACE, sample_target
from needleroll.se3 import wrap_angle

rng = np.random.default_rng(9)
target = sample_target(WORKSPACE, rng)
print(f"target: ({target[0]:.1f}, {target[1]:.1f}, {target[2]:.1f}) mm")

for medium in (MEDIUM_PRESETS["rigid-gelatin"], MEDIUM_PRESETS["gelatin"]):
    record = run_trial("ekf", medium, target, seed=9)
    label = "rigid" if medium.rigid else "compliant"
    # "arrived" covers both true arrival and the target slipping behind the
    # tip plane; the targeting error tells those apart.
    print(f"\n{label}: {record.outcome}, targeting error {record.final_error:.3f} mm")
    print(f"  mean angular error {np.mean(record.angular_error):.3f} rad over {record.steps} steps")
    # The filter's roll error tracks the true windup base_angle - tip_roll.
    windup = np.array([
        abs(wrap_angle(b - r)) for b, r in zip(record.base_angle, record.roll_true)
    ])
    print(f"  windup at end {windup[-1]:.3f} rad, "
          f"filter angular error at end {record.angular_error[-1]:.3f} rad")
