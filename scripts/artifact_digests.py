"""Print one sha256 per artifact of a small fixed needleroll pipeline.

Runs generate -> train --epochs 2 -> evaluate lstm --n 1 -> evaluate
truth,ekf,lstm -> report, with generate and evaluate at --jobs 1 and
again at --jobs 2, so every command that reads a pipeline file runs.
report renders into its own directory, holding only a copy of the last
evaluate's trial file, so the views evaluate renders and the ones report
regenerates from that file are both digested, and should match. Each
evaluate steers to the targets sampled under its --seed. Each stage runs as
`python -m needleroll` on the `src/` next to this script, inside a
temporary directory (relative output paths, so the recorded config.json
files do not name it). Every stage runs with `OPENBLAS_CORETYPE=Haswell`:
OpenBLAS picks its kernels per CPU at run time, and kernels of another
CPU sum in another order, so without it the training and filter bytes
would follow the machine; Haswell's kernels run on any x86-64 CPU with
AVX2. Prints a first line starting with `#` that names
what the float bytes depend on, `# Python <v>, numpy <v>, OpenBLAS core
<name>` (the kernel set OpenBLAS ran, or `unknown`), then
`<sha256>  jobs<j>/<path>` for every file written, sorted.

`scripts/artifact_digests.txt` holds the output at the versions its
header names. A change that moves an artifact byte regenerates it, so the
diff names each file that moved:

    python3 scripts/artifact_digests.py > scripts/artifact_digests.txt

Under another Python or numpy release the bytes may differ, so CI
installs the header's numpy before it diffs the digest lines.

Standard library only; exits 2 if a stage fails.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = "7"
# run by the interpreter the stages run under, so this script needs no numpy
VERSIONS = """\
import ctypes, platform, numpy
try:
    from numpy._core import _multiarray_umath
    # a symbol lookup on numpy's extension also searches the OpenBLAS it links
    numpy_lib = ctypes.CDLL(_multiarray_umath.__file__)
    corename = numpy_lib.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    core = corename().decode()
except (ImportError, OSError, AttributeError):
    core = "unknown"
print(f"# Python {platform.python_version()}, numpy {numpy.__version__}, "
      f"OpenBLAS core {core}")
"""


def stages(jobs: int) -> list[list[str]]:
    j = f"jobs{jobs}"
    pooled = ["--seed", SEED, "--jobs", str(jobs)]
    return [
        ["generate", "--n", "8", "--out", f"{j}/dataset", *pooled],
        ["train", "--dataset", f"{j}/dataset", "--epochs", "2",
         "--out", f"{j}/run", "--seed", SEED],
        ["evaluate", "--estimators", "lstm", "--n", "1",
         "--model", f"{j}/run/model.json", "--out", f"{j}/one", *pooled],
        ["evaluate", "--estimators", "truth,ekf,lstm", "--n", "3",
         "--model", f"{j}/run/model.json", "--out", f"{j}/evaluate",
         *pooled],
        ["report", "--out", f"{j}/report"],
    ]


def copy_trials(work: Path, jobs: int):
    """Seed jobs<j>/report with evaluate's trial file, and nothing else."""
    trials = Path("trials", "episodes.jsonl")
    dest = work / f"jobs{jobs}" / "report" / trials
    dest.parent.mkdir(parents=True)
    shutil.copyfile(work / f"jobs{jobs}" / "evaluate" / trials, dest)


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    header = subprocess.run([sys.executable, "-c", VERSIONS], env=env,
                            capture_output=True, text=True)
    if header.returncode != 0:
        print(f"the version header exited {header.returncode}:\n"
              f"{header.stderr}", file=sys.stderr)
        return 2
    print(header.stdout, end="")
    with tempfile.TemporaryDirectory(prefix="needleroll_digests_") as work:
        for jobs in (1, 2):
            for argv in stages(jobs):
                if argv[0] == "report":
                    copy_trials(Path(work), jobs)
                done = subprocess.run(
                    [sys.executable, "-m", "needleroll", *argv], cwd=work,
                    env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    print(f"{' '.join(argv)} exited {done.returncode}:\n"
                          f"{done.stderr}", file=sys.stderr)
                    return 2
        root = Path(work)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
