"""The fast narrative demos run to completion as standalone scripts.

Demos 04 and 05 train a network and are left out for time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ["01_torsion_lag.py", "02_truth_steering.py",
              "03_ekf_baseline.py", "06_registration.py"]


@pytest.mark.parametrize("script", FAST_DEMOS)
def test_fast_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
