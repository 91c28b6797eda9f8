"""Problem generation, quality metrics, and Monte Carlo sweep execution.

Sources follow a Bernoulli-Gaussian model: each entry is active with
probability p (drawn N(0, sigma_on²)) and otherwise near-zero
(N(0, sigma_off²)); an exact-k mode activates a uniformly random subset of
fixed size instead. Mixing matrices have i.i.d. standard-normal entries with
columns normalized to unit length, and measurements optionally carry additive
white Gaussian noise.

Every randomized routine takes an explicit seed (an integer, a SeedSequence,
or a Generator) and is bit-reproducible from it. Sweeps derive one seed per
trial as ``base_seed + run_index`` and split it into independent streams for
the matrix, the sources, and the noise, so grid points that share a trial
index see identical problem data.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from .errors import DimensionMismatch, Sl0Error, ZeroReference
from .linalg import _factor_of, as_finite
from .solver import (
    GEOMETRIC_FIELDS, WIDTH_FIELDS, SolverConfig, _anneal_block, _check_count, _check_integer, _check_irls, _check_real,
    _write_rows, irls_solve,
)

# Cap applied when the estimate is (numerically) exact, so averages of
# decibel values stay finite in noiseless exact-recovery regimes.
SNR_CAP_DB = 300.0

# The solvers a sweep point can name: sl0, or the IRLS baseline.
SOLVERS = ("sl0", "irls")


@dataclass(frozen=True)
class SourceModel:
    """Bernoulli-Gaussian source parameters; ``p`` and ``exact_k`` are
    mutually exclusive activation modes."""

    m: int
    p: float | None = None
    exact_k: int | None = None
    sigma_on: float = 1.0
    sigma_off: float = 0.0

    def __post_init__(self) -> None:
        _check_integer("m", self.m)
        if self.m < 1:
            raise ValueError("m must be positive")
        if (self.p is None) == (self.exact_k is None):
            raise ValueError("exactly one of p and exact_k must be set")
        if self.p is not None:
            _check_real("p", self.p, 0.0, 1.0, closed=True)
        if self.exact_k is not None:
            _check_integer("exact_k", self.exact_k)
            if not 0 <= self.exact_k <= self.m:
                raise ValueError(f"exact_k must lie in [0, m], got {self.exact_k}")
        _check_real("sigma_on", self.sigma_on, 0.0)
        _check_real("sigma_off", self.sigma_off, 0.0, self.sigma_on, closed=True)


@dataclass(frozen=True)
class MixingSpec:
    """Shape, sensor-noise level and default seed of the mixing stage."""

    n: int
    m: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("n", self.n)
        _check_integer("m", self.m)
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got n={self.n}, m={self.m}")
        _check_real("noise_sigma", self.noise_sigma, 0.0, closed=True)
        _check_count("seed", self.seed, least=0)


@dataclass(frozen=True)
class TrialResult:
    snr_db: float
    mse: float
    wall_time: float
    run_index: int


def generate_sources(model: SourceModel, seed) -> np.ndarray:
    """Draw one source vector from the model."""
    rng = np.random.default_rng(seed)
    scale = np.full(model.m, model.sigma_off)
    if model.exact_k is not None:
        active = rng.choice(model.m, size=model.exact_k, replace=False)
        scale[active] = model.sigma_on
    else:
        scale[rng.random(model.m) < model.p] = model.sigma_on
    return scale * rng.standard_normal(model.m)


def generate_mixing(spec: MixingSpec, seed=None) -> np.ndarray:
    """Random n×m mixing matrix with unit-norm columns."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    a = rng.standard_normal((spec.n, spec.m))
    return a / np.linalg.norm(a, axis=0)


def mix(a: np.ndarray, s: np.ndarray, noise_sigma: float, seed) -> np.ndarray:
    """Measurements A·s plus white Gaussian noise of per-component standard
    deviation ``noise_sigma``."""
    a, s = as_finite(a, 2), as_finite(s, 1)
    if s.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"cannot mix shapes {a.shape} and {s.shape}")
    _check_real("noise_sigma", noise_sigma, 0.0, closed=True)
    x = a @ s
    if noise_sigma > 0.0:
        x = x + noise_sigma * np.random.default_rng(seed).standard_normal(a.shape[0])
    return x


def generate_problem(model: SourceModel, spec: MixingSpec, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (A, s, x) instance from a single seed, split into independent
    streams for the mixing matrix, the sources, and the noise."""
    if model.m != spec.m:
        raise DimensionMismatch(f"source length {model.m} != mixing width {spec.m}")
    seed_a, _, _ = np.random.SeedSequence(seed).spawn(3)
    a = generate_mixing(spec, seed_a)
    s, x = _draw_measurements(a, model, spec.noise_sigma, seed)
    return a, s, x


def _draw_measurements(a: np.ndarray, model: SourceModel, noise_sigma: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """The sources and measurements :func:`generate_problem` draws from
    ``seed``, on a matrix drawn before."""
    _, seed_s, seed_n = np.random.SeedSequence(seed).spawn(3)
    s = generate_sources(model, seed_s)
    return s, mix(a, s, noise_sigma, seed_n)


def _metric_pair(s_true, s_est) -> tuple[np.ndarray, np.ndarray]:
    """Both vectors as read by :func:`as_finite`, of one shape."""
    s_true, s_est = as_finite(s_true), as_finite(s_est)
    if s_true.shape != s_est.shape:
        raise DimensionMismatch(f"shape mismatch {s_true.shape} vs {s_est.shape}")
    return s_true, s_est


def mse(s_true, s_est) -> float:
    """Mean squared componentwise error, saturating at ``inf`` only where
    the mean itself is beyond the float range.

    Where the difference s − ŝ or its squares overflow, the mean is taken
    from the norm of the difference of both vectors halved, scaled by a
    power of two as :func:`snr_db` scales it; elsewhere it is the plain
    formula's value.
    """
    s_true, s_est = _metric_pair(s_true, s_est)
    with np.errstate(over="ignore"):
        value = float(np.mean((s_true - s_est) ** 2))
        if value < math.inf:
            return value
        err, err_exp = _scaled_norm(np.ldexp(s_true, -1) - np.ldexp(s_est, -1))
        return float(np.ldexp(err * err / s_true.size, 2 * err_exp + 2))


def snr_db(s_true, s_est) -> float:
    """20·log10(‖s‖ / ‖s - ŝ‖) in dB, capped at ``SNR_CAP_DB``.

    Each norm is taken on its vector scaled by a power of two near its
    largest magnitude. That scaling is exact, so the value is the plain
    formula's bit for bit wherever no square under- or overflows, and it
    stays accurate for vectors so small that their squares would. Where the
    difference s − ŝ itself overflows, it is taken on both vectors halved.
    """
    s_true, s_est = _metric_pair(s_true, s_est)
    ref, ref_exp = _scaled_norm(s_true)
    if ref == 0.0:
        raise ZeroReference("SNR is undefined for an all-zero reference")
    with np.errstate(over="ignore"):
        diff = s_true - s_est
    halved = not np.all(np.isfinite(diff))
    err, err_exp = _scaled_norm(np.ldexp(s_true, -1) - np.ldexp(s_est, -1) if halved else diff)
    err_exp += halved
    if err == 0.0:
        return SNR_CAP_DB
    shift = ref_exp - err_exp
    if abs(shift) < 1000:
        # The norm ratio (ref/err)·2**shift is a normal float: exact to rescale.
        return min(SNR_CAP_DB, 20.0 * math.log10(math.ldexp(ref / err, shift)))
    return min(SNR_CAP_DB, 20.0 * (math.log10(ref / err) + shift * math.log10(2.0)))


def _scaled_norm(v: np.ndarray) -> tuple[float, int]:
    """(x, e) with ‖v‖ = x·2**e, x taken on v·2**-e for e the binary
    exponent of max|v_i|; (0.0, 0) for a zero vector."""
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return 0.0, 0
    exp = math.frexp(peak)[1]
    return float(np.linalg.norm(np.ldexp(v, -exp))), exp


@dataclass(frozen=True)
class SweepPoint(SolverConfig):
    """One grid point of a sweep: the solver settings of a
    :class:`SolverConfig` plus the problem shape, source statistics and
    solver choice.

    ``k`` is the expected active count (activation probability k/m), drawn
    exactly when ``exact_activation`` is set. ``solver`` picks sl0 or the
    IRLS baseline, which reads the ``irls_*`` fields. Defaults are the
    benchmark reference point: 1000 unknowns, 400 equations, 100 active
    sources, unit active scale, 0.01 sensor noise, and the solver defaults.
    """

    m: int = 1000
    n: int = 400
    k: int = 100
    exact_activation: bool = False
    sigma_on: float = 1.0
    sigma_off: float = 0.0
    noise_sigma: float = 0.01
    solver: str = "sl0"
    irls_p_norm: float = 0.0
    irls_iterations: int = 50
    irls_regularizer: float = 1e-8

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_irls(self.irls_p_norm, self.irls_iterations, self.irls_regularizer, prefix="irls_")

    def source_model(self) -> SourceModel:
        if self.exact_activation:
            return SourceModel(m=self.m, exact_k=self.k, sigma_on=self.sigma_on, sigma_off=self.sigma_off)
        return SourceModel(m=self.m, p=self.k / self.m, sigma_on=self.sigma_on, sigma_off=self.sigma_off)

    def mixing_spec(self) -> MixingSpec:
        return MixingSpec(n=self.n, m=self.m, noise_sigma=self.noise_sigma)

    def solver_config(self) -> SolverConfig:
        """The solver settings alone, as a plain :class:`SolverConfig`."""
        return SolverConfig(**{f.name: getattr(self, f.name) for f in fields(SolverConfig)})


def run_trial(point: SweepPoint, run_index: int, base_seed: int) -> TrialResult:
    """The trial of a one-point, one-run :func:`run_sweep`, whose time
    excludes the factorization; raises the Sl0Error it counts as a failure.
    ``run_index`` and ``base_seed`` are integers of at least 0."""
    _check_count("run_index", run_index, least=0)
    _check_count("base_seed", base_seed, least=0)
    (outcome,) = _sweep_run_index(_grid_points({}, point), run_index, base_seed)
    if isinstance(outcome, Sl0Error):
        raise outcome
    return outcome


def _score(s_true, estimate, wall: float, run_index: int) -> TrialResult | Sl0Error:
    """The trial's result, or the Sl0Error that scoring it raised."""
    try:
        return TrialResult(snr_db(s_true, estimate), mse(s_true, estimate), wall, run_index)
    except Sl0Error as exc:
        return exc


def _grid_points(grid: dict, base: SweepPoint) -> list[tuple[dict, SweepPoint, MixingSpec, SourceModel]]:
    """Each combination of the ``grid`` values, as its overrides, ``base``
    with them applied, and that point's mixing spec and source model. Every
    point's problem and solver are checked here, before anything is drawn;
    ``base`` alone is not, since the grid may override what makes it invalid."""
    valid = {f.name for f in fields(SweepPoint)}
    for key in grid:
        if key not in valid:
            raise ValueError(f"unknown grid key {key!r}; valid keys: {sorted(valid)}")
        if key in GEOMETRIC_FIELDS and base.schedule is not None:
            raise ValueError(
                f"varying {key!r} has no effect with an explicit schedule; "
                "set schedule=None on the base point"
            )
    points = []
    keys = list(grid)
    for combo in product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        point = replace(base, **overrides)
        spec = point.mixing_spec()  # first, so that source_model() divides by an m >= 1
        model = point.source_model()
        if point.solver not in SOLVERS:
            raise ValueError(f"unknown solver {point.solver!r}; choose sl0 or irls")
        points.append((overrides, point, spec, model))
    return points


def run_sweep(
    grid: dict,
    runs: int,
    base_seed: int,
    base: SweepPoint | None = None,
    jobs: int = 1,
    collect_trials: bool = False,
):
    """Run ``runs`` independent trials at every point of a parameter grid.

    ``grid`` maps SweepPoint field names to value lists; the cartesian
    product is swept in key order. Returns one summary row per grid point
    with mean/std/min SNR, mean MSE and mean solve time; solver failures are
    counted per point instead of aborting the sweep. ``base_seed`` is an
    integer of at least 0. With ``collect_trials``
    a long-format list of per-trial rows is returned alongside.

    Grid points of one run index that share (n, m) share its matrix, which
    is drawn and factored once for all of them; the solve times exclude that
    factorization. Of those, the sl0 points whose solver settings differ in
    their widths alone are annealed in lockstep as one n×T block, each
    column on its own point's widths, like :func:`sl0_solve_batch`;
    the time of each is its share of the block's wall time, the block's time
    divided by T, and a threshold failure stays its own point's. IRLS points
    are solved one at a time. ``jobs``
    threads run whole run indices, so the blocks are the same at any
    ``jobs``; each index in flight keeps one factor per (n, m) alive, about
    jobs·2·n·m·8 bytes for a grid of one shape.
    """
    base = base or SweepPoint()
    _check_count("runs", runs)
    _check_count("jobs", jobs)
    _check_count("base_seed", base_seed, least=0)
    points = _grid_points(grid, base)

    def one_index(run_index: int) -> list:
        return _sweep_run_index(points, run_index, base_seed)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            by_run = list(pool.map(one_index, range(runs)))
    else:
        by_run = [one_index(r) for r in range(runs)]

    rows = []
    trial_rows = []
    for i, (overrides, *_) in enumerate(points):
        chunk = [outcomes[i] for outcomes in by_run]
        good = [t for t in chunk if isinstance(t, TrialResult)]
        snrs = np.array([t.snr_db for t in good])
        row = dict(overrides)
        row.update(
            runs=runs,
            snr_mean_db=float(np.mean(snrs)) if good else math.nan,
            snr_std_db=float(np.std(snrs)) if good else math.nan,
            snr_min_db=float(np.min(snrs)) if good else math.nan,
            mse_mean=float(np.mean([t.mse for t in good])) if good else math.nan,
            time_mean_s=float(np.mean([t.wall_time for t in good])) if good else math.nan,
            failures=len(chunk) - len(good),
        )
        rows.append(row)
        if collect_trials:
            for r, outcome in enumerate(chunk):
                trial = dict(overrides, run_index=r, seed=base_seed + r)
                if isinstance(outcome, TrialResult):
                    trial.update(
                        snr_db=outcome.snr_db, mse=outcome.mse, wall_time_s=outcome.wall_time, error=""
                    )
                else:
                    trial.update(snr_db="", mse="", wall_time_s="", error=str(outcome))
                trial_rows.append(trial)
    if collect_trials:
        return rows, trial_rows
    return rows


def _sweep_run_index(points, run_index: int, base_seed: int) -> list:
    """Trial outcomes (TrialResult or the Sl0Error raised) of one run index
    at every grid point, drawn from :func:`_grid_points`' specs and models.

    The first point of each (n, m) draws the whole problem and factors its
    matrix; the others draw their sources and noise on that factor's matrix,
    bit-identical to :func:`generate_problem` at the trial seed, or draw
    nothing and take the error if the factorization failed. IRLS points are
    solved as they are drawn; the sl0 points of one (n, m) whose settings
    differ in the width fields alone are then annealed as one block, each
    column on its own widths, timed at its share of the block's wall time.
    Only the last factor built outlives the call, in the package's slot.
    """
    seed = base_seed + run_index
    factors: dict[tuple[int, int], object] = {}  # each shape's factor, or the Sl0Error building it raised
    outcomes: list = [None] * len(points)
    blocks: dict[tuple, tuple] = {}  # each block's factor and (index, s_true, x) of its members
    for i, (_, point, spec, model) in enumerate(points):
        key = (point.n, point.m)
        factor = factors.get(key)
        if factor is None:
            a, s_true, x = generate_problem(model, spec, seed)
            try:
                factor = factors[key] = _factor_of(a)
            except Sl0Error as exc:
                factor = factors[key] = exc
        elif not isinstance(factor, Sl0Error):
            s_true, x = _draw_measurements(factor.matrix, model, spec.noise_sigma, seed)
        if isinstance(factor, Sl0Error):
            outcomes[i] = factor
        elif point.solver == "sl0":
            engine = tuple(getattr(point, f.name) for f in fields(SolverConfig) if f.name not in WIDTH_FIELDS)
            blocks.setdefault(key + engine, (factor, []))[1].append((i, s_true, x))
        else:
            started = time.perf_counter()
            estimate = irls_solve(factor, x, point.irls_p_norm, point.irls_iterations, point.irls_regularizer)
            outcomes[i] = _score(s_true, estimate, time.perf_counter() - started, run_index)

    for factor, members in blocks.values():
        x_block = np.column_stack([x for _, _, x in members])
        started = time.perf_counter()
        reports = _anneal_block(factor, x_block, [points[i][1] for i, _, _ in members])
        per_sample = (time.perf_counter() - started) / len(members)
        for (i, s_true, _), report in zip(members, reports):
            failed = isinstance(report, Sl0Error)
            outcomes[i] = report if failed else _score(s_true, report.estimate, per_sample, run_index)
    return outcomes


def write_sweep_csv(rows: list[dict], path) -> None:
    """Rows as CSV under the keys of the first row: a sweep's summary rows
    (the varied parameters, then the aggregate columns) or its long-format
    per-trial rows, one per (grid point, run)."""
    _write_rows(rows, path)
