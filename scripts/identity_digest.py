#!/usr/bin/env python3
"""One SHA-256 over the solver's outputs on a fixed case list, at one BLAS thread.

Two checkouts whose solves are bit-identical print the same digest, so a
refactor that claims to change no result can be checked against its parent:

    PYTHONPATH=<checkout>/src python scripts/identity_digest.py

The cases:
- ``sl0_solve`` on three columns, and ``sl0_solve_batch`` and the annealing
  engine on the whole block of T = 10 right-hand sides, at 20×50, 80×200
  and 400×1000, under stock, geometric and threshold configs and every
  smoothing family. Each block holds one all-zero column and one column
  scaled by 1e-3. The digest takes each report's estimate, residual norm and
  trace with per-level estimates, or the error raised in its place; the
  engine gives each threshold column its own outcome, where
  ``sl0_solve_batch`` raises the first failure.
- ``run_sweep``'s summary and per-trial rows, time columns removed, on the
  grid of the benchmark's ``sweep_anneal`` workload at 2 runs and on a
  mixed sl0/IRLS grid.

The script sets OPENBLAS_NUM_THREADS=1 before numpy loads, since a BLAS
product's rounding may depend on its thread count.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from sl0 import SolverConfig, SweepPoint, run_sweep, sl0_solve, sl0_solve_batch  # noqa: E402
from sl0.errors import Sl0Error  # noqa: E402
from sl0.linalg import ProjectorFactor  # noqa: E402
from sl0.penalty import KINDS  # noqa: E402
from sl0.solver import _anneal_block  # noqa: E402

SHAPES = ((20, 50), (80, 200), (400, 1000))
T = 10
CONFIGS = {
    "stock": {},
    "geometric": dict(schedule=None, c=0.8, sigma_min=1e-3),
    "threshold": dict(schedule=None, c=0.8, sigma_min=1e-2, mu=1.5, mode="threshold", max_inner=60),
}
TIME_KEYS = ("time_mean_s", "wall_time_s")


def feed(h, value) -> None:
    """Add ``value`` to the digest: an array by dtype, shape and bytes,
    anything else by its repr (exact for floats)."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def feed_reports(h, call) -> None:
    """Every field of the reports ``call()`` returns, or the error it raises
    or returns in a report's place."""
    try:
        reports = call()
    except Sl0Error as exc:
        reports = [exc]
    for rep in reports:
        if isinstance(rep, Sl0Error):
            feed(h, (type(rep).__name__, str(rep)))
            continue
        feed(h, rep.estimate)
        feed(h, rep.residual_norm)
        for e in rep.trace:
            feed(h, (e.sigma, e.f_total, e.residual_norm, e.inner_iterations))
            feed(h, e.estimate)


def block(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A unit-column n×m matrix and T noisy mixtures of 10%-sparse sources,
    column 0 all zero and column 1 scaled by 1e-3."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m))
    a /= np.linalg.norm(a, axis=0)
    s = np.where(rng.random((m, T)) < 0.1, rng.standard_normal((m, T)), 0.0)
    x = a @ s + 0.01 * rng.standard_normal((n, T))
    x[:, 0] = 0.0
    x[:, 1] *= 1e-3
    return a, x


def main() -> None:
    h = hashlib.sha256()
    for seed, (n, m) in enumerate(SHAPES):
        a, x = block(n, m, seed)
        factor = ProjectorFactor(a)
        for family in KINDS:
            for settings in CONFIGS.values():
                cfg = SolverConfig(family=family, **settings)
                for t in range(3):
                    feed_reports(h, lambda: [sl0_solve(a, x[:, t], cfg, record_estimates=True)])
                feed_reports(h, lambda: sl0_solve_batch(a, x, cfg, record_estimates=True))
                feed_reports(h, lambda: _anneal_block(factor, x, [cfg] * T, record_estimates=True))
    sweep_base = SweepPoint(exact_activation=True, schedule=None, sigma1=1.0, sigma_min=0.01)
    mixed_base = SweepPoint(m=60, n=24, k=5, schedule=None, c=0.7, sigma_min=1e-3)
    for grid, base in (
        ({"c": [0.5, 0.8, 0.95], "k": [80, 110]}, sweep_base),
        ({"solver": ["sl0", "irls"], "sigma_min": [1e-2, 1e-3], "n": [20, 24]}, mixed_base),
    ):
        rows, trials = run_sweep(grid, runs=2, base_seed=11, base=base, collect_trials=True)
        for row in rows + trials:
            feed(h, sorted((k, v) for k, v in row.items() if k not in TIME_KEYS))
    print(h.hexdigest())


if __name__ == "__main__":
    main()
