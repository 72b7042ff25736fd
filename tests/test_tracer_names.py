"""Every layer the benchmark tracer times resolves in needleroll.

benchmarks/tracer.py names the functions it wraps as (module, qualname)
pairs in TRACED. A function renamed or deleted in the package must fail
here, in Tier-1, and not only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, qualname in tracer.TRACED:
        owner = importlib.import_module(f"needleroll.{module_name}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert len(tracer.TRACED) > 20 and not missing, missing
