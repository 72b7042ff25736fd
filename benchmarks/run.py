"""needleroll benchmark: the CLI stages, end to end and layer by layer.

    python3 benchmarks/run.py --workload collect --seed 1 --seconds 10 --trace 0

Workloads: collect, fit, compare, or `all` to run each in turn. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The lines before it give the
machine, the workload-specific metric names and the artifact digests.
`--tiny` shrinks every input for the smoke test. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("collect", "fit", "compare")
# One BLAS thread per process, set before numpy loads: the two pool workers
# of the compare `--jobs 2` check then never run more compute threads than
# the box has cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "needleroll" / "__init__.py").is_file():
        print(f"error: no needleroll sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, so only after the thread budget is set

    sizes = workloads.TINY if args.tiny else workloads.FULL
    (ROOT / "benchmarks" / ".work").mkdir(exist_ok=True)
    # fixed-length name: the output paths land in config.json, whose size counts
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / "benchmarks" / ".work"))
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_info = workloads.machine(ROOT, BLAS_THREAD_VARS)
    run_info.update(workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, sizes=vars(sizes))
    print("run " + json.dumps(run_info, sort_keys=True))
    report = result["report"]
    for key, value in report.items():
        if isinstance(value, tuple):
            print(f"{args.workload} {key} {value[0]!r} {value[1]}")
        else:
            print(f"{args.workload} {key} {json.dumps(value)}")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
