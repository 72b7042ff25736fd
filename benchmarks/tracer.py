"""Span tracer for needleroll's layers, installed from outside the package.

Every function in TRACED is replaced, for the duration of `installed()`, by a
wrapper that records one span (name, start, end, parent) per call. Every
binding a caller resolves is patched: module-level functions wherever a
needleroll module imported them by name (`plant` and `ekf` each bind
`heading_tangent_basis`, `cli` binds `generate_dataset`), methods on their
class. Spans stay in flat arrays in memory until `metrics()` reduces them.

Spans recorded inside worker processes are lost, so only single-process
stage calls are traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED = (
    ("plant", "step"),
    ("plant", "sense"),
    ("plant", "sample_target"),
    ("controller", "control"),
    ("se3", "heading_tangent_basis"),
    ("se3", "so3_exp"),
    ("se3", "se3_exp"),
    ("se3", "recompose_roll"),
    ("se3", "decompose_roll"),
    ("se3", "angular_error"),
    ("ekf", "predict"),
    ("ekf", "update"),
    ("ekf", "transition_jacobian"),
    ("ekf", "align_jacobian"),
    ("lstm", "forward_step"),
    ("lstm", "RollEstimator.estimate"),
    ("lstm", "_pad_batch"),
    ("lstm", "_forward_batch"),
    ("lstm", "backward"),
    ("lstm", "Adam.apply"),
    ("lstm", "sequence_rmse"),
    ("dataset", "run_closed_loop"),
    ("dataset", "record_from_logs"),
    ("dataset", "record_to_line"),
    ("dataset", "record_from_line"),
    ("dataset", "episode_to_sequence"),
    ("evaluate", "EkfRollTracker.estimate"),
    ("evaluate", "run_trial"),
    ("evaluate", "report"),
    ("evaluate", "render_report"),
)

# called once per control tick, so their tail latency is reported too
PER_TICK = ("controller.control", "lstm.RollEstimator.estimate",
            "evaluate.EkfRollTracker.estimate")

SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TRACED)


class Tracer:
    def __init__(self):
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # lstm.pad_useful_ratio: real / padded timesteps of training batches
        self.real_steps = 0.0
        self.padded_steps = 0.0

    def _count_padding(self, result, parent):
        if parent >= 0 and SPAN_NAMES[self.name_id[parent]] == "lstm.sequence_rmse":
            return  # validation chunk, not a training batch
        mask = result[2]
        self.real_steps += float(mask.sum())
        self.padded_steps += float(mask.size)

    def _wrap(self, nid: int, fn):
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end = self.start, self.end
        after = self._count_padding if SPAN_NAMES[nid] == "lstm._pad_batch" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(result, parent[idx])
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "needleroll" or name.startswith("needleroll.")]
        patches = []
        for nid, (module_name, qualname) in enumerate(TRACED):
            module = importlib.import_module(f"needleroll.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                targets = [(owner, attr)]
            else:
                original = getattr(module, qualname)
                targets = [(m, name) for m in modules
                           for name, value in vars(m).items()
                           if value is original]
            wrapper = self._wrap(nid, original)
            for owner, attr in targets:
                setattr(owner, attr, wrapper)
                patches.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _reduce(self):
        """(name ids, durations, self times); self time is a span's duration
        minus the part its child spans cover."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=float)
               - np.frombuffer(self.start, dtype=float))
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        return ids, dur, dur - covered

    def metrics(self) -> dict[str, tuple[float, str]]:
        ids, dur, self_t = self._reduce()
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            mine = ids == nid
            us = dur[mine] * 1e6
            out[f"{name}.calls"] = (int(mine.sum()), "count")
            out[f"{name}.self_s"] = (float(self_t[mine].sum()), "s")
            out[f"{name}.us_p50"] = (float(np.percentile(us, 50)) if us.size else 0.0, "us")
            if name in PER_TICK:
                out[f"{name}.us_p99"] = (float(np.percentile(us, 99)) if us.size else 0.0, "us")
        return out

    def shares(self, wall: float) -> tuple[dict, dict]:
        """Shares of `wall`: self time per module, and inclusive time per
        span name where it reaches 5%."""
        ids, dur, self_t = self._reduce()
        by_module, inclusive = {}, {}
        for nid, name in enumerate(SPAN_NAMES):
            mine = ids == nid
            module = name.split(".", 1)[0]
            by_module[module] = by_module.get(module, 0.0) + float(self_t[mine].sum()) / wall
            share = float(dur[mine].sum()) / wall
            if share >= 0.05:
                inclusive[name] = round(share, 3)
        return {m: round(v, 3) for m, v in by_module.items()}, inclusive

    def pad_useful_ratio(self) -> float:
        return self.real_steps / self.padded_steps if self.padded_steps else 0.0
