"""Closed-loop steering with perfect tip-pose feedback.

The bang-bang roll controller points the bevel at the target, inserts,
and flips the bevel whenever the target drifts across the other side of
the tip axis. With ground-truth feedback this lands well under the
arrival tolerance even in a compliant medium, which establishes the
ceiling every estimator is judged against.
"""

import numpy as np

from needleroll.dataset import run_closed_loop
from needleroll.plant import MEDIUM_PRESETS, WORKSPACE, sample_target

rng = np.random.default_rng(7)
medium = MEDIUM_PRESETS["gelatin"]

for trial in range(5):
    target = sample_target(WORKSPACE, rng)
    logs, state, outcome, err = run_closed_loop(medium, target, rng)
    rotating = [w != 0.0 for w in logs["rotation_speed"]]
    flips = sum(1 for a, b in zip(rotating, rotating[1:]) if a != b)
    print(f"trial {trial}: target depth {target[2]:5.1f} mm, "
          f"{outcome} in {len(rotating):4d} steps, error {err:.3f} mm, "
          f"{flips} bevel flips")
