"""Spans around the public entry points of the sl0 layers, and the per-layer
metrics derived from them.

The tracer patches the entry points from outside the package while a traced
call runs and restores them afterwards, so untraced calls run the program
exactly as shipped. Spans stay in memory, each with the span that called it,
and are written out once the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import sl0
from sl0.linalg import ProjectorFactor
from sl0.penalty import PenaltyFamily

# Unit of every per-layer metric; the names are those of BENCHMARK.json.
PER_LAYER_UNITS = {
    "linalg.factor.ms": "ms",
    "linalg.factor.per_matrix": "count",
    "linalg.project.ms": "ms",
    "linalg.project.per_sample": "ms/sample",
    "linalg.project.gflops": "GFLOP/s",
    "linalg.min_norm.ms": "ms",
    "linalg.share": "fraction",
    "penalty.ascent.ms": "ms",
    "penalty.total.ms": "ms",
    "penalty.share": "fraction",
    "solver.self.share": "fraction",
    "solver.self.ms_per_sample": "ms/sample",
    "solver.levels.per_sample": "count",
    "expgen.generate.ms": "ms",
    "expgen.generate.per_matrix": "count",
    "expgen.share": "fraction",
    "trace.overhead.share": "fraction",
}

ROOT = "bench.call"


def _fingerprint(a: np.ndarray) -> tuple:
    """Cheap identity of a matrix's contents: its shape and a strided sample."""
    a = np.asarray(a)
    return (a.shape, a.ravel()[:: 4099].tobytes())


def _project_flops(args, _result) -> float:
    # s ← s − Aᵀ(A·Aᵀ)⁻¹(A·s − x): A·s and the Aᵀ product cost 2nmT each,
    # the two triangular solves 2n²T together.
    proj, s = args[0], args[1]
    n, m = proj.source_dims
    t = s.shape[1] if np.ndim(s) == 2 else 1
    return 4.0 * n * m * t + 2.0 * n * n * t


# (span name, owner, attribute, what to record from (args, result)).
# A function owner of None means every sl0 module that binds the name.
ENTRY_POINTS = (
    ("linalg.factor", ProjectorFactor, "__init__", lambda args, _r: _fingerprint(args[0].matrix)),
    ("linalg.project", ProjectorFactor, "project", _project_flops),
    ("linalg.min_norm", ProjectorFactor, "min_norm", None),
    ("penalty.ascent", PenaltyFamily, "ascent_direction", None),
    ("penalty.total", PenaltyFamily, "total", None),
    ("solver.sl0_solve", None, "sl0_solve", lambda _a, r: len(r.trace)),
    ("solver.sl0_solve_batch", None, "sl0_solve_batch", lambda _a, r: sum(len(x.trace) for x in r)),
    ("expgen.generate_problem", None, "generate_problem", lambda _a, r: _fingerprint(r[0])),
    ("expgen.run_trial", None, "run_trial", None),
    ("expgen.run_sweep", None, "run_sweep", None),
)


class Tracer:
    """Records spans (id, parent id, name, start, end, call index, info)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._call = -1
        self._patches = []
        for name, owner, attr, info in ENTRY_POINTS:
            if owner is not None:
                original = owner.__dict__[attr]
                targets = [owner]
            else:
                original = getattr(sl0, attr)
                targets = [
                    mod
                    for mod_name, mod in list(sys.modules.items())
                    if (mod_name == "sl0" or mod_name.startswith("sl0."))
                    and getattr(mod, attr, None) is original
                ]
            wrapper = self.wrap(name, original, info)
            self._patches.extend((target, attr, original, wrapper) for target in targets)

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end, self._call, None)
            if info is not None:
                self.spans[sid] = (sid, parent, name, start, end, self._call, info(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        try:
            for target, attr, _original, wrapper in self._patches:
                setattr(target, attr, wrapper)
            yield
        finally:
            for target, attr, original, _wrapper in self._patches:
                setattr(target, attr, original)

    def call(self, index: int, fn, *args):
        """Run one benchmark call traced, under a root span."""
        self._call = index
        with self.installed():
            return self.wrap(ROOT, fn)(*args)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end, call, _extra in self.spans:
                fh.write(json.dumps([sid, parent, call, name, start, end]) + "\n")


def span_shares(spans: list[tuple]) -> dict[str, float]:
    """Total time under each span name, as a share of the traced wall time."""
    totals: dict[str, float] = {}
    for _sid, _parent, name, start, end, _call, _extra in spans:
        totals[name] = totals.get(name, 0.0) + end - start
    wall = totals.pop(ROOT)
    return {name: total / wall for name, total in totals.items()}


def _median_ms(durations: list[float]) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans: list[tuple], samples: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Shares are divided by the traced wall time, the summed root spans. A
    span's self time is its duration minus that of its child spans; calls
    run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for sid, parent, _name, start, end, _call, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, list[tuple]] = {}
    self_by_layer: dict[str, float] = {}
    for span in spans:
        sid, _parent, name, start, end, _call, _extra = span
        by_name.setdefault(name, []).append(span)
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (end - start) - child_time[sid]

    def durations(name):
        return [end - start for _s, _p, _n, start, end, _c, _e in by_name.get(name, [])]

    def per_distinct(name):
        keys = [extra for *_rest, extra in by_name.get(name, [])]
        return len(keys) / len(set(keys)) if keys else 0.0

    wall = sum(durations(ROOT))
    project = by_name.get("linalg.project", [])
    project_time = sum(durations("linalg.project"))
    flops = sum(extra for *_rest, extra in project)
    # Level counts from outermost solver spans only, so a batch solve that
    # delegates to single solves is not counted twice.
    solver_spans = [s for name in ("solver.sl0_solve", "solver.sl0_solve_batch") for s in by_name.get(name, [])]
    levels = sum(
        extra for _s, parent, _n, *_t, extra in solver_spans
        if extra is not None and not (parent >= 0 and spans[parent][2].startswith("solver."))
    )
    return {
        "linalg.factor.ms": _median_ms(durations("linalg.factor")),
        "linalg.factor.per_matrix": per_distinct("linalg.factor"),
        "linalg.project.ms": _median_ms(durations("linalg.project")),
        "linalg.project.per_sample": 1e3 * project_time / samples,
        "linalg.project.gflops": flops / project_time / 1e9 if project_time else 0.0,
        "linalg.min_norm.ms": _median_ms(durations("linalg.min_norm")),
        "linalg.share": self_by_layer.get("linalg", 0.0) / wall,
        "penalty.ascent.ms": _median_ms(durations("penalty.ascent")),
        "penalty.total.ms": _median_ms(durations("penalty.total")),
        "penalty.share": self_by_layer.get("penalty", 0.0) / wall,
        "solver.self.share": self_by_layer.get("solver", 0.0) / wall,
        "solver.self.ms_per_sample": 1e3 * self_by_layer.get("solver", 0.0) / samples,
        "solver.levels.per_sample": levels / samples,
        "expgen.generate.ms": _median_ms(durations("expgen.generate_problem")),
        "expgen.generate.per_matrix": per_distinct("expgen.generate_problem"),
        "expgen.share": self_by_layer.get("expgen", 0.0) / wall,
    }
