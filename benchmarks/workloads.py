"""The benchmark's workloads: set-up, timed stage call and output checks.

Every stage call goes through `needleroll.cli.main` in this process, on
inputs built from the workload seed during set-up. Each workload is a
closed loop with one caller: the next stage call starts only after the
previous one returned and its outputs were checked.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from needleroll import cli
from needleroll.dataset import COLLECTION_ERROR_LIMIT, load_manifest, record_from_line
from needleroll.lstm import load_model

import tracer

COMPARE_FILES = ("trials/summaries.csv", "histogram.csv", "report.txt")
POOL_JOBS = 2  # workers of compare's `--jobs` check; one per core of the reference box


@dataclass(frozen=True)
class Sizes:
    collect_episodes: int  # episodes per timed `generate`
    reference_episodes: int  # collect set-up: prefix regenerated to check against
    fit_episodes: int  # dataset the timed `train` reads
    fit_epochs: int  # epochs per timed `train`
    model_episodes: int  # compare set-up: dataset of the short-trained model
    model_epochs: int
    trials: int  # paired trials per timed `evaluate`
    setups: int  # least set-up repeats; setup_s is their median


FULL = Sizes(collect_episodes=10, reference_episodes=3, fit_episodes=70,
             fit_epochs=3, model_episodes=12, model_epochs=3, trials=2,
             setups=2)
TINY = Sizes(collect_episodes=3, reference_episodes=2, fit_episodes=4,
             fit_epochs=1, model_episodes=3, model_epochs=1, trials=1,
             setups=1)


class StageFailed(RuntimeError):
    pass


def run_cli(*argv):
    """One CLI stage call; its own stdout is swallowed, errors surface."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise StageFailed(f"needleroll {' '.join(argv)} exited {code}")


def digest(root: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((root / name).read_bytes())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class Outcome:
    """Checked result of one stage call."""

    attempted: int
    failed: int
    work: float  # throughput items this call completed
    digest: str = ""
    quality: dict = field(default_factory=dict)
    bytes_written: int = 0


class Workload:
    def named_metrics(self, calls) -> dict:
        """Throughput under the workload's own metric names."""
        return {self.item: (statistics.median(
            c.outcome.work / (c.wall * c.wall_scale) for c in calls), "1/s")}

    def extra_checks(self, timeline, work: Path) -> list:
        """Checked spans run after the timed calls; untimed."""
        return []


class Collect(Workload):
    """`generate` of gelatin episodes steered on the true pose; throughput
    counts control ticks, which vary less with the seed than episodes do."""

    name = "collect"
    item = "ticks_per_s"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.n = sizes.collect_episodes
        self.attempts = self.n  # episode slots
        self.n_reference = sizes.reference_episodes

    def setup(self, work: Path):
        # episode k depends only on (seed, k), so a short run must reproduce
        # the first lines of every full-size store
        run_cli("generate", "--n", self.n_reference, "--seed", self.seed,
                "--out", work)
        self.reference = (work / "episodes.jsonl").read_text().splitlines()

    def warmup(self, work: Path):
        run_cli("generate", "--n", 2, "--seed", self.seed, "--out", work)

    def stage(self, out: Path):
        run_cli("generate", "--n", self.n, "--seed", self.seed,
                "--jobs", 1, "--out", out)

    def check(self, out: Path) -> Outcome:
        manifest = load_manifest(out)
        files = (manifest.episodes_file, "manifest.json")
        result = Outcome(attempted=self.n, failed=self.n, work=0,
                         digest=digest(out, files),
                         bytes_written=sum((out / f).stat().st_size for f in files))
        metas = {m.line: m for m in manifest.episodes}
        bad = set()
        lines = 0
        with open(out / manifest.episodes_file) as fh:  # streamed: peak RSS stays the CLI's
            for k, line in enumerate(fh):
                lines += 1
                rec = record_from_line(line)
                result.work += rec.steps
                meta = metas.get(k)
                if (meta is None
                        or (k < len(self.reference) and line.rstrip("\n") != self.reference[k])
                        or rec.episode_id != meta.episode_id or rec.steps != meta.steps
                        or rec.final_error != meta.final_error
                        or rec.outcome != "arrived"
                        or not rec.final_error < COLLECTION_ERROR_LIMIT):
                    bad.add(k)
        if lines == self.n and len(metas) == self.n:
            result.failed = len(bad)
        return result

    def named_metrics(self, calls) -> dict:
        return {**super().named_metrics(calls),
                "episodes_per_s": (statistics.median(
                    self.n / (c.wall * c.wall_scale) for c in calls), "1/s")}


class Fit(Workload):
    """`train` at the shipped model shape on a 70-episode dataset."""

    name = "fit"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.n = sizes.fit_episodes
        self.epochs = sizes.fit_epochs
        self.attempts = 1  # the training run

    def setup(self, work: Path):
        self.dataset = work
        run_cli("generate", "--n", self.n, "--seed", self.seed, "--jobs", 2,
                "--out", work)

    def warmup(self, work: Path):
        run_cli("train", "--dataset", self.dataset, "--seed", self.seed,
                "--epochs", 1, "--out", work)

    def stage(self, out: Path):
        run_cli("train", "--dataset", self.dataset, "--seed", self.seed,
                "--epochs", self.epochs, "--out", out)

    def check(self, out: Path) -> Outcome:
        with open(out / "training_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(r[k]) for r in rows for k in ("train_loss", "val_rmse")]
        load_model(out / "model.json")  # raises on a malformed or non-finite model
        ok = len(rows) == self.epochs and all(map(math.isfinite, losses))
        return Outcome(attempted=1, failed=0 if ok else 1, work=self.epochs,
                       digest=digest(out, ("model.json", "training_log.csv")),
                       quality={"val_rmse": float(rows[-1]["val_rmse"]) if rows else math.nan})

    def named_metrics(self, calls) -> dict:
        return {"epoch_s": (statistics.median(
            c.wall * c.wall_scale / c.outcome.work for c in calls), "s")}


class Compare(Workload):
    """`evaluate --estimators lstm,ekf` on gelatin with a short-trained model."""

    name = "compare"
    item = "ticks_per_s"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.n = sizes.trials
        self.attempts = 2 * self.n  # paired trials

    def setup(self, work: Path):
        run_cli("generate", "--n", self.sizes.model_episodes, "--seed",
                self.seed, "--out", work / "data")
        run_cli("train", "--dataset", work / "data", "--seed", self.seed,
                "--epochs", self.sizes.model_epochs, "--out", work / "fit")
        self.model = work / "fit" / "model.json"

    def _evaluate(self, out: Path, n: int, jobs: int):
        run_cli("evaluate", "--estimators", "lstm,ekf", "--medium", "gelatin",
                "--model", self.model, "--n", n, "--seed", self.seed,
                "--jobs", jobs, "--out", out)

    def warmup(self, work: Path):
        self._evaluate(work, 1, 1)

    def stage(self, out: Path):
        self._evaluate(out, self.n, 1)

    def check(self, out: Path) -> Outcome:
        with open(out / COMPARE_FILES[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        trials = self.attempts
        result = Outcome(attempted=trials, failed=trials,
                         work=sum(int(r["steps"]) for r in rows),
                         digest=digest(out, COMPARE_FILES),
                         bytes_written=tree_bytes(out))
        if len(rows) != trials:
            return result
        errors = {"lstm": [], "ekf": []}
        for r in rows:
            errors[r["estimator"]].append(float(r["targeting_error_mm"]))
        result.failed = sum(
            1 for r in rows
            if not (math.isfinite(float(r["targeting_error_mm"]))
                    and math.isfinite(float(r["mean_angular_error_rad"]))))
        result.quality = {f"{k}_target_mm": statistics.fmean(v) if v else math.nan
                          for k, v in errors.items()}
        return result

    def extra_checks(self, timeline, work: Path) -> list:
        # the same call through the process pool must not change a byte
        span = timeline.time(functools.partial(self._evaluate, work, self.n, POOL_JOBS))
        span.outcome = self.check(work)
        return [span]


WORKLOADS = {w.name: w for w in (Collect, Fit, Compare)}


# ------------------------------------------------------------- measurement

# The box is shared: co-tenants change its speed by up to 2x for seconds at
# a time, which moves a raw stage time by more than any bound worth setting.
# So a fixed loop of interpreter work and 3x3 numpy ops, the instruction mix
# of one control tick, is timed before and after every timed span, and the
# span is reported scaled to a box that runs that loop in CALIBRATION_REF_S.
# Each calibration is the median of a few short loops, so a burst of
# contention shorter than the span does not skew it.
CALIBRATION_REF_S = 0.1
MIN_CALLS = 3  # timed calls per run, however long each takes
# a short set-up is repeated until it has taken this long, for a steadier median
SETUP_MIN_S = 1.0
SETUP_MAX = 5
CALIBRATION_STEPS = 1000
CALIBRATION_REPEATS = 3


def calibration_loop() -> float:
    rot = np.eye(3)
    v = np.array([0.1, 0.2, 0.3])
    total = 0.0
    for i in range(CALIBRATION_STEPS):
        c, s = math.cos(i), math.sin(i)
        rot = rot @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        total += float(np.linalg.norm(np.cross(v, rot[:, 2])))
    return total


def calibrate() -> tuple[float, float]:
    """(wall, CPU) seconds of CALIBRATION_REPEATS loops, from their medians."""
    walls, cpus = [], []
    for _ in range(CALIBRATION_REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        calibration_loop()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return (CALIBRATION_REPEATS * statistics.median(walls),
            CALIBRATION_REPEATS * statistics.median(cpus))


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def child_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


@dataclass
class Span:
    """One timed span; `*_scale` take its times to the reference box."""

    wall: float
    cpu: float  # this process and its reaped children
    child_cpu: float
    wall_scale: float
    cpu_scale: float
    outcome: Outcome | None = None


class Timeline:
    """Times spans back to back, with a calibration between each two."""

    def __init__(self):
        calibration_loop()  # the first loop in a process runs slow
        self.calibrations = [calibrate()]

    def time(self, fn) -> Span:
        cpu0, child0 = cpu_seconds(), child_cpu_seconds()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        cpu, child = cpu_seconds() - cpu0, child_cpu_seconds() - child0
        before, after = self.calibrations[-1], calibrate()
        self.calibrations.append(after)
        return Span(wall, cpu, child,
                    wall_scale=2 * CALIBRATION_REF_S / (before[0] + after[0]),
                    cpu_scale=2 * CALIBRATION_REF_S / (before[1] + after[1]))


def timed_call(wl, timeline: Timeline, out: Path) -> Span:
    failure = []

    def call():
        try:
            wl.stage(out)
        except StageFailed as exc:
            failure.append(exc)

    span = timeline.time(call)
    if failure:
        print(f"stage failed: {failure[0]}")
        span.outcome = Outcome(attempted=wl.attempts, failed=wl.attempts, work=0.0)
    else:
        span.outcome = wl.check(out)
    shutil.rmtree(out, ignore_errors=True)
    return span


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, work: Path) -> dict:
    wl = WORKLOADS[name](seed, sizes)
    timeline = Timeline()
    setups = []
    while (len(setups) < sizes.setups
           or (sum(s.wall for s in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX)):
        setups.append(timeline.time(functools.partial(wl.setup, work / f"setup{len(setups)}")))
    timeline.time(functools.partial(wl.warmup, work / "warmup"))

    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
        calls.append(timed_call(wl, timeline, work / f"call{len(calls)}"))

    extra = wl.extra_checks(timeline, work / "extra")

    traced = None
    if trace:
        spans = tracer.Tracer()
        with spans.installed():
            traced = timeline.time(functools.partial(wl.stage, work / "traced"))
        traced.outcome = wl.check(work / "traced")

    timed = calls + extra + ([traced] if traced else [])
    for span in timed:
        if span.outcome.digest != calls[0].outcome.digest:
            span.outcome.failed = span.outcome.attempted

    outcomes = [span.outcome for span in timed]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    median = statistics.median
    timed_ok = [c for c in calls if c.outcome.work > 0]
    if not timed_ok:
        raise RuntimeError(f"every timed {wl.name} call failed")
    end_to_end = {
        "setup_s": (median(s.wall * s.wall_scale for s in setups), "s"),
        "throughput": (median(c.outcome.work / (c.wall * c.wall_scale) for c in timed_ok), "1/s"),
        "cpu_ms_per_item": (median(1e3 * c.cpu * c.cpu_scale / c.outcome.work for c in timed_ok), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    named = wl.named_metrics(timed_ok)
    quality = {}
    for o in outcomes:
        for k, v in o.quality.items():
            quality.setdefault(k, (v, "mm" if k.endswith("_mm") else "1"))
    report = {
        "error_rate": (failed / attempted, "ratio"),
        **named,
        **quality,
        "wall_scale": [c.wall_scale for c in calls],
        "raw_setup_s": [s.wall for s in setups],
        "raw_wall_s": [c.wall for c in calls],
        "raw_cpu_s": [c.cpu for c in calls],
        "calibration_s": [w for w, _ in timeline.calibrations],
        "digest": calls[0].outcome.digest,
    }
    per_layer = {}
    if trace:
        untraced = median(c.wall * c.wall_scale for c in timed_ok)
        per_layer = layer_metrics(wl, extra, spans, traced, untraced)
        report["traced_wall_s"] = traced.wall
        report["self_share"], report["inclusive_share"] = spans.shares(traced.wall)
    return {"attempted": attempted, "failed": failed, "end_to_end": end_to_end,
            "per_layer": per_layer, "report": report}


def layer_metrics(wl, extra, spans, traced, untraced_wall) -> dict:
    out = spans.metrics()
    loops = out["dataset.run_closed_loop.calls"][0]
    outcome = traced.outcome
    collect = isinstance(wl, Collect)
    out["dataset.accept_ratio"] = (wl.n / loops if collect and loops else 0.0, "ratio")
    out["dataset.bytes_written"] = (outcome.bytes_written if collect else 0, "bytes")
    out["lstm.pad_useful_ratio"] = (spans.pad_useful_ratio(), "ratio")
    out["evaluate.bytes_written"] = (outcome.bytes_written if isinstance(wl, Compare) else 0, "bytes")
    util = (statistics.median(s.child_cpu / (POOL_JOBS * s.wall) for s in extra)
            if extra else 0.0)
    out["cli.pool.worker_util"] = (util, "ratio")
    out["trace.overhead"] = (traced.wall * traced.wall_scale / untraced_wall, "ratio")
    return out


# ----------------------------------------------------------------- machine

def _blas_threads_in_use():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype, fn.argtypes = ctypes.c_int, []
            return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def machine(root: Path, blas_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in blas_vars},
        "blas_threads": _blas_threads_in_use(),
        "git_commit": _git_commit(root),
    }
