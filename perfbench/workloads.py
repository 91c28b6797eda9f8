"""The four workloads: how each draws its inputs, calls the library and
checks what comes back.

Every workload is a closed loop: the benchmark draws the inputs of call i
from its seed, makes the call, waits for it, checks the outputs, and only
then draws call i + 1. Inputs are never reused between calls, so a cache
keyed on the inputs cannot serve a later call.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import sl0
from checks import RESIDUAL_TOL, SNR_FLOOR_DB, check_estimates, relative_residual, snr_db

# The reference point of the paper's benchmark.
M, N, P_ACTIVE, NOISE_SIGMA = 1000, 400, 0.1, 0.01

# Stream tags, so that each workload's inputs come from their own stream of
# the seed and batch_stream and batch_wide share one mixing matrix.
MATRIX_TAG = 0
TAGS = {"single_ref": 1, "batch_stream": 2, "batch_wide": 3, "sweep_anneal": 4}


class CheckFailed(Exception):
    """An output of the program failed a check."""


class OperationFailed(Exception):
    """The program reported that an operation failed."""


def draw_matrix(rng: np.random.Generator) -> np.ndarray:
    """N×M Gaussian matrix with unit-norm columns."""
    a = rng.standard_normal((N, M))
    return a / np.linalg.norm(a, axis=0)


def draw_problem(rng: np.random.Generator, a: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli–Gaussian sources (M×t, active with probability P_ACTIVE)
    and their mixtures with white noise of standard deviation NOISE_SIGMA."""
    active = rng.random((M, t)) < P_ACTIVE
    s = np.where(active, rng.standard_normal((M, t)), 0.0)
    x = a @ s + NOISE_SIGMA * rng.standard_normal((N, t))
    return s, x


class SingleRef:
    """A stream of independent reference-point problems, one sl0_solve each."""

    samples_per_call = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, index: int):
        rng = np.random.default_rng([self.seed, TAGS["single_ref"], index + 1])
        a = draw_matrix(rng)
        s, x = draw_problem(rng, a, 1)
        return a, s[:, 0], x[:, 0]

    def call(self, inputs):
        a, _s, x = inputs
        return sl0.sl0_solve(a, x)

    def check(self, inputs, report) -> np.ndarray:
        a, s, x = inputs
        ok, snrs, why = check_estimates(a, x, s, report.estimate)
        if not ok:
            raise CheckFailed(why)
        return snrs


class BatchBlocks:
    """One fixed mixing matrix; right-hand sides in blocks of ``width``
    columns, each block one sl0_solve_batch."""

    def __init__(self, seed: int, name: str, width: int) -> None:
        self.seed, self.name, self.samples_per_call = seed, name, width
        self.a = draw_matrix(np.random.default_rng([seed, MATRIX_TAG]))

    def inputs(self, index: int):
        rng = np.random.default_rng([self.seed, TAGS[self.name], index + 1])
        return draw_problem(rng, self.a, self.samples_per_call)

    def call(self, inputs):
        _s, x = inputs
        return sl0.sl0_solve_batch(self.a, x)

    def check(self, inputs, reports) -> np.ndarray:
        s, x = inputs
        if len(reports) != s.shape[1]:
            raise CheckFailed(f"{len(reports)} reports for {s.shape[1]} right-hand sides")
        estimates = np.column_stack([r.estimate for r in reports])
        ok, snrs, why = check_estimates(self.a, x, s, estimates)
        if not ok:
            raise CheckFailed(why)
        return snrs


class SweepAnneal:
    """run_sweep over a slice of the breakdown experiment's grid: the three
    annealing factors crossed with active counts on the recoverable side,
    one run per grid point, from σ₁ = 1 and the default jobs."""

    GRID = {"c": [0.5, 0.8, 0.95], "k": [80, 110]}
    BASE = sl0.SweepPoint(exact_activation=True, schedule=None, sigma1=1.0, sigma_min=0.01)
    samples_per_call = len(GRID["c"]) * len(GRID["k"])

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, index: int) -> tuple[int, int]:
        """The call index and the sweep's base seed; run_sweep draws the
        problems from the seed."""
        seq = np.random.SeedSequence([self.seed, TAGS["sweep_anneal"], index + 1])
        return index, int(seq.generate_state(1)[0])

    def call(self, inputs):
        _index, base_seed = inputs
        rows = sl0.run_sweep(self.GRID, runs=1, base_seed=base_seed, base=self.BASE)
        failures = sum(row["failures"] for row in rows)
        if failures:
            raise OperationFailed(f"run_sweep reports {failures} failed trials")
        return rows

    def check(self, inputs, rows) -> np.ndarray:
        index, base_seed = inputs
        if len(rows) != self.samples_per_call:
            raise CheckFailed(f"{len(rows)} rows for {self.samples_per_call} grid points")
        snrs = np.array([row["snr_mean_db"] for row in rows])
        if not np.min(snrs) >= SNR_FLOOR_DB:
            raise CheckFailed(f"grid point below the floor: SNR {np.min(snrs):.2f} dB < {SNR_FLOOR_DB} dB")
        # Re-solve one grid point per call, rotating through the grid, and
        # recompute its SNR and residual in numpy.
        row = rows[index % len(rows)]
        point = replace(self.BASE, c=row["c"], k=row["k"])
        a, s, x = sl0.generate_problem(point.source_model(), point.mixing_spec(), base_seed)
        self._check_problem(a, s, x, point)
        estimate = sl0.sl0_solve(a, x, point.solver_config()).estimate
        if relative_residual(a, x, estimate)[0] > RESIDUAL_TOL:
            raise CheckFailed(f"re-solve at {point.c}, {point.k} is infeasible")
        again = float(snr_db(s, estimate)[0])
        if abs(again - row["snr_mean_db"]) > 0.01:
            raise CheckFailed(f"row SNR {row['snr_mean_db']:.6f} dB, re-solved {again:.6f} dB")
        return snrs

    @staticmethod
    def _check_problem(a, s, x, point) -> None:
        """The generated problem has the make-up the sweep asked for."""
        if np.count_nonzero(s) != point.k:
            raise CheckFailed(f"{np.count_nonzero(s)} active sources, asked for {point.k}")
        if np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) > 1e-12:
            raise CheckFailed("mixing columns are not unit-norm")
        noise = np.linalg.norm(x - a @ s) / (point.noise_sigma * np.sqrt(point.n))
        if not 0.8 < noise < 1.2:
            raise CheckFailed(f"noise norm is {noise:.3f} of its expectation")


def make(name: str, seed: int):
    if name == "single_ref":
        return SingleRef(seed)
    if name == "batch_stream":
        return BatchBlocks(seed, name, 10)
    if name == "batch_wide":
        return BatchBlocks(seed, name, 1000)
    if name == "sweep_anneal":
        return SweepAnneal(seed)
    raise ValueError(f"unknown workload {name!r}")
