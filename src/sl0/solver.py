"""Sparse recovery by graduated smoothing over a shrinking width sequence.

The solve starts from the minimum Euclidean-norm solution of A·s = x, then
walks a decreasing sequence of smoothing widths. At each width it takes a few
projected ascent steps on the smoothed sparsity measure: an elementwise shrink
step ``s <- s - mu * delta`` followed by projection back onto the feasible
set. Because each width is warm-started from the previous one, the iterate
tracks the maximizer as the surrogate sharpens toward the true nonzero count.

One lockstep engine anneals every solve, a single one as a block of one
column. A width level ends after ``L`` steps (the fast default) or, in
threshold mode, once the smoothed measure clears a target, which buys an
a-posteriori error guarantee at the price of a possible
``ThresholdUnreachable`` error when the width sequence drops too fast.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    ThresholdUnreachable,
    TooManyActive,
    ZeroVector,
)
from .linalg import ProjectorFactor, _factor_of, as_matrix, as_vector, compute_M
from .penalty import PenaltyFamily

# Step factor, inner count and width sequence that the benchmark experiments
# all use; they are deliberately the package-wide defaults.
DEFAULT_MU = 2.5
DEFAULT_L = 3
DEFAULT_SCHEDULE = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)


# The fields that set a solve's widths: an explicit ``schedule``, or the three
# that build a geometric one. Configs differing in these alone share a block.
GEOMETRIC_FIELDS = ("sigma1", "c", "sigma_min")
WIDTH_FIELDS = ("schedule",) + GEOMETRIC_FIELDS

# Most widths a geometric sequence may have; the experiments use a few hundred.
MAX_LEVELS = 100_000


def _check_geometric(sigma1, c, sigma_min) -> None:
    """The range check of a geometric sequence, and of its length once
    ``sigma1`` is known; ``sigma1`` None is auto."""
    if not (sigma1 is None or 0.0 < sigma1 < math.inf) or not 0.0 < sigma_min < math.inf:
        raise ValueError(f"sigma1 and sigma_min must be positive and finite, got {sigma1} and {sigma_min}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    levels = 1 if sigma1 is None else math.ceil((math.log(sigma_min) - math.log(sigma1)) / math.log(c)) + 1
    if levels > MAX_LEVELS:
        raise ValueError(f"sigma1={sigma1}, c={c} and sigma_min={sigma_min} give {levels} widths, over {MAX_LEVELS}")


def validate_schedule(values) -> tuple[float, ...]:
    """Check a width sequence is positive, finite and strictly decreasing."""
    out = tuple(float(v) for v in values)
    if len(out) < 1:
        raise ValueError("schedule must contain at least one width")
    if not all(0.0 < v < math.inf for v in out):
        raise ValueError(f"schedule widths must be positive and finite: {out}")
    if any(b >= a for a, b in zip(out, out[1:])):
        raise ValueError(f"schedule must be strictly decreasing: {out}")
    return out


def geometric_schedule(sigma1: float, c: float, sigma_min: float) -> tuple[float, ...]:
    """Widths sigma1, c·sigma1, c²·sigma1, ... while above sigma_min, then
    sigma_min itself as the exact final value."""
    _check_geometric(sigma1, c, sigma_min)
    values = []
    v = float(sigma1)
    while v > sigma_min:
        values.append(v)
        v *= c
    values.append(float(sigma_min))
    return tuple(values)


def auto_sigma1(s0) -> float:
    """Starting width from the minimum-norm iterate: twice its largest
    magnitude, the low end of the range where the smoothing saturates."""
    s0 = as_vector(s0)
    peak = float(np.max(np.abs(s0)))
    if peak == 0.0:
        raise ZeroVector("cannot pick a starting width from an all-zero vector")
    return 2.0 * peak


@dataclass(frozen=True)
class SolverConfig:
    """Annealing schedule plus step parameters.

    ``schedule`` gives the widths explicitly; set it to None to build a
    geometric sequence from ``sigma1`` (auto-selected from the initial
    iterate when None), ``c`` and ``sigma_min``. ``mode`` is ``"fixed"``
    (L inner steps per width) or ``"threshold"`` (iterate until the smoothed
    measure reaches ``target_f``, default m - n/2, capped at ``max_inner``).
    ``family`` may be given by name.
    """

    family: PenaltyFamily = PenaltyFamily("gaussian")
    schedule: tuple[float, ...] | None = DEFAULT_SCHEDULE
    sigma1: float | None = None
    c: float = 0.5
    sigma_min: float = 0.01
    mu: float = DEFAULT_MU
    L: int = DEFAULT_L
    mode: str = "fixed"
    target_f: float | None = None
    max_inner: int = 1000
    record_estimates: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.family, str):
            object.__setattr__(self, "family", PenaltyFamily(self.family))
        if self.schedule is not None:
            object.__setattr__(self, "schedule", validate_schedule(self.schedule))
        else:
            _check_geometric(self.sigma1, self.c, self.sigma_min)
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.target_f is not None and not math.isfinite(self.target_f):
            raise ValueError(f"target_f must be finite, got {self.target_f}")
        if self.L < 1:
            raise ValueError("L must be at least 1")
        if self.mode not in ("fixed", "threshold"):
            raise ValueError(f"mode must be 'fixed' or 'threshold', got {self.mode!r}")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")

    def resolve_schedule(self, s0: np.ndarray) -> tuple[float, ...] | None:
        """Widths to run for an initial iterate; None when the start width is
        undefined (auto selection on an all-zero iterate)."""
        if self.schedule is not None:
            return self.schedule
        sigma1 = self.sigma1
        if sigma1 is None:
            if not np.any(s0):
                return None
            sigma1 = auto_sigma1(s0)
        return geometric_schedule(sigma1, self.c, self.sigma_min)


@dataclass(frozen=True, slots=True)
class LevelTrace:
    """State at the end of one width level.

    ``residual_norm`` is ‖A·(s − μ·Δ) − x‖ for the level's last ascent step
    s → s − μ·Δ, taken before that step is projected back: how far the step
    left the feasible set. The projection forms this residual anyway, so it
    costs no extra product. A threshold level that takes no step reports
    0.0. The feasibility of the returned estimate is
    :attr:`SolveReport.residual_norm`.
    """

    sigma: float
    f_total: float
    residual_norm: float
    inner_iterations: int
    estimate: np.ndarray | None = None


@dataclass
class SolveReport:
    """Estimate plus the per-width trace of a single solve.

    ``residual_norm`` is ‖A·ŝ − x‖ of the returned estimate ŝ, measured once
    after the last projection.
    """

    estimate: np.ndarray
    trace: list[LevelTrace] = field(default_factory=list)
    wall_time: float = 0.0
    residual_norm: float = 0.0


def sl0_solve(a, x, cfg: SolverConfig | None = None) -> SolveReport:
    """Recover a sparse solution of the underdetermined system A·s = x.

    ``a`` is the matrix A or a ``ProjectorFactor`` of it. For a matrix, the
    factorization of A·Aᵀ (with its row-rank check) is built on the first
    call and reused by later calls, from any caller, while the matrix passed
    in equals it entry for entry; only the last matrix's factor is kept. A
    caller alternating several matrices can build one ``ProjectorFactor``
    per matrix and pass it as ``a``. The estimate is the same either way.
    This is :func:`sl0_solve_batch` on a block of one column, so
    ``wall_time`` is the whole call's.
    """
    return sl0_solve_batch(a, as_vector(x)[:, None], cfg)[0]


def sl0_solve_batch(a, x_block, cfg: SolverConfig | None = None) -> list[SolveReport]:
    """Solve one system per column of an n×T block of right-hand sides.

    A single factorization of A·Aᵀ is shared across columns, which advance
    together through matrix-shaped steps, so the per-sample cost drops well
    below that of repeated single solves; each estimate equals its single
    solve to rounding, and in threshold mode the lowest column that cannot
    reach the target raises its ``ThresholdUnreachable`` after the block.
    Each returned report carries the per-sample share of the batch wall
    time. A call works in place on (2m + 2n)·T doubles of workspace (22.4 MB
    at 400×1000 and T = 1000), allocated once and freed when it returns; the
    estimates it returns take m·T more.
    ``a`` is the matrix or its factor, as in :func:`sl0_solve`, so
    successive blocks on an unchanged matrix reuse its factorization.
    """
    cfg = cfg or SolverConfig()
    started = time.perf_counter()
    proj = _factor_of(a)
    x_block = as_matrix(x_block)
    t_count = x_block.shape[1]
    reports = _anneal_block(proj, x_block, [cfg] * t_count)
    per_sample = (time.perf_counter() - started) / t_count
    for rep in reports:
        if isinstance(rep, ThresholdUnreachable):
            raise rep
        rep.wall_time = per_sample
    return reports


def _anneal_block(proj: ProjectorFactor, x_block: np.ndarray, cfgs) -> list[SolveReport | ThresholdUnreachable]:
    """Solves of every column of ``x_block`` in lockstep, column t under
    ``cfgs[t]``.

    The configs may differ in the :data:`WIDTH_FIELDS` alone; the first
    one's other settings are used. The columns are ordered by schedule
    length, longest first, so the columns still annealing at each level are
    the leading ones; when a column's schedule runs out, its estimate is
    copied out and the block shrinks to the columns still annealing. Every
    step runs in place on workspaces allocated once, held sample-major:
    column t of the m×T iterate block, the m×T step block and the n×T
    residual block is row t of a C-ordered T×m (T×n) array, and so is
    column t of the right-hand sides, made C-contiguous once. The factor
    and the penalty see their F-ordered m×k (n×k) transposes, whose active
    columns are always a prefix of rows, so shrinking the block is a slice.
    A fixed-mode level takes L steps. A threshold-mode level steps until
    every column's smoothed measure, evaluated on the block at each check,
    has reached the target; a column
    that has reached it takes zero steps until the level ends, so each
    column gets exactly the steps of its own solve. A column still below the
    target after max_inner steps is frozen, and its report slot holds the
    ``ThresholdUnreachable`` instead. Each level's residual is the one the
    column's last projection formed; the columns that finish together take
    one more product for their final residual. The reports come back in the
    column order of ``x_block`` and carry no wall time. Of the factor, only
    ``source_dims``, ``min_norm``, ``project`` and ``residual`` are used.
    """
    cfg = cfgs[0]
    fam, mu = cfg.family, cfg.mu
    n, m = proj.source_dims
    target = cfg.target_f if cfg.target_f is not None else m - n / 2.0
    t_count = x_block.shape[1]
    # Sample-major rows: the first k rows of each array are the k active
    # columns, one contiguous block that every step works on in place.
    x = np.ascontiguousarray(x_block.T)
    s_rows, step_rows, r_rows = np.empty((t_count, m)), np.empty((t_count, m)), np.empty((t_count, n))
    s = proj.min_norm(x.T, out=s_rows.T)
    schedules = []
    for t, col_cfg in enumerate(cfgs):
        sched = col_cfg.resolve_schedule(s[:, t])
        schedules.append(sched if sched is not None else ())
        if sched is None:
            s[:, t] = 0.0
    order = sorted(range(t_count), key=lambda t: -len(schedules[t]))
    if order != sorted(order):
        # mode="clip" writes straight into ``out``; the default mode buffers.
        s_rows[...] = np.take(s_rows, order, axis=0, out=step_rows, mode="clip")
        x = x[order]
        schedules = [schedules[t] for t in order]
    traces: list[list[LevelTrace]] = [[] for _ in range(t_count)]
    reports: list[SolveReport | ThresholdUnreachable | None] = [None] * t_count

    def final_residuals(first: int, last: int) -> np.ndarray:
        # One product, into the residual workspace, for the columns finishing together.
        return _column_norms(proj.residual(s_rows[first:last].T, x[first:last].T, out=r_rows[first:last].T))

    def finish(first: int, last: int, resid: np.ndarray) -> None:
        for pos in range(first, last):
            reports[order[pos]] = reports[order[pos]] or SolveReport(
                s_rows[pos].copy(), traces[pos], residual_norm=float(resid[pos - first])
            )

    active = t_count
    for level in range(len(schedules[0])):
        still = sum(len(sch) > level for sch in schedules[:active])
        if still < active:
            finish(still, active, final_residuals(still, active))
            active = still
        s, step, r, x_act = s_rows[:active].T, step_rows[:active].T, r_rows[:active].T, x[:active].T
        sigmas = np.array([sch[level] for sch in schedules[:active]])
        if cfg.mode == "threshold":
            f_tot = fam.total(s, sigmas, axis=0, out=step)
            going = (f_tot < target) & np.array([reports[t] is None for t in order[:active]])
            inner, resid = np.zeros(active, dtype=int), np.zeros(active)
            while going.any():
                if inner[going][0] == cfg.max_inner:  # the columns still going took every step
                    for pos in np.flatnonzero(going):
                        reports[order[pos]] = ThresholdUnreachable(
                            f"smoothed measure stuck below {target:.6g} after {inner[pos]} inner steps at "
                            f"sigma={sigmas[pos]:.6g}; the width sequence likely decreased too fast"
                        )
                    break
                fam.ascent_direction(s, sigmas, out=step)
                step *= mu * going
                s -= step
                proj.project(s, x_act, out=step, residual=r)
                np.copyto(resid, _column_norms(r), where=going)
                inner += going
                f_now = fam.total(s, sigmas, axis=0, out=step)
                np.copyto(f_tot, f_now, where=going)
                going &= f_now < target
        else:
            for _ in range(cfg.L):
                fam.ascent_direction(s, sigmas, out=step)
                step *= mu
                s -= step
                proj.project(s, x_act, out=step, residual=r)
            f_tot = fam.total(s, sigmas, axis=0, out=step)
            # ``r`` still holds A·s − x of the last step before its projection.
            resid = _column_norms(r)
            inner = [cfg.L] * active
        for pos in range(active):
            traces[pos].append(
                LevelTrace(
                    sigma=float(sigmas[pos]),
                    f_total=float(f_tot[pos]),
                    residual_norm=float(resid[pos]),
                    inner_iterations=int(inner[pos]),
                    estimate=s_rows[pos].copy() if cfg.record_estimates else None,
                )
            )
    resid = final_residuals(0, active)
    # Release the step, residual and right-hand-side blocks before the last
    # estimates are copied out.
    step_rows = r_rows = x = step = r = x_act = None
    finish(0, active, resid)
    return reports


def _column_norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of the 2-D ``r``, summed as
    np.linalg.norm(r, axis=0) sums them; ``r`` is overwritten with its squares."""
    return np.sqrt(np.add.reduce(np.multiply(r, r, out=r), axis=0))


def suggest_sigma_floor_noisy(a, k: int, epsilon: float, gamma: float | None = None) -> float:
    """Smallest width worth annealing to when the measurements carry additive
    noise of Euclidean norm at most ``epsilon``.

    Evaluates m·gamma·epsilon·‖Aᵀ(A·Aᵀ)⁻¹‖_F / (n - 2k), where ``gamma``
    bounds the smoothing family's derivative (exp(-1/2), the gaussian value,
    when omitted). Requires the active count k below n/2 and blows up as k
    approaches that limit; with exact measurements (epsilon = 0) the floor is
    0 and the width may shrink arbitrarily.
    """
    if gamma is None:
        gamma = PenaltyFamily("gaussian").derivative_bound
    proj = _factor_of(a)
    n, m = proj.source_dims
    if k >= n / 2.0:
        raise TooManyActive(f"need k < n/2 = {n / 2}, got k={k}")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    return m * gamma * epsilon * proj.pinv_frobenius_norm() / (n - 2.0 * k)


def error_upper_bound(a, s_hat) -> float:
    """A-posteriori bound on the distance from a feasible estimate to the
    (at most n/2-sparse) true solution: (M+1)·m·alpha, where alpha is the
    (floor(n/2)+1)-th largest magnitude of the estimate.

    Exact for estimates with at most floor(n/2) nonzeros (alpha = 0). Only
    available under the small-instance guard of :func:`compute_M`.
    """
    a = as_matrix(a)
    s_hat = as_vector(s_hat)
    n, m = a.shape
    if s_hat.shape[0] != m:
        raise DimensionMismatch(f"estimate has length {s_hat.shape[0]}, expected {m}")
    big_m = compute_M(a)
    mags = np.sort(np.abs(s_hat))[::-1]
    alpha = float(mags[n // 2])
    return (big_m + 1.0) * m * alpha


def irls_solve(a, x, p_norm: float = 0.0, iterations: int = 50, regularizer: float = 1e-8) -> np.ndarray:
    """Iteratively reweighted least-squares baseline.

    Repeats s <- W·Aᵀ(A·W·Aᵀ)⁻¹·x with W = diag(|s_i|^(2-p) + regularizer),
    starting from the minimum-norm solution. Each iterate is feasible by
    construction. ``a`` is the matrix or its factor, as in
    :func:`sl0_solve`; the reweighted systems are formed from the factor's
    dense ``matrix``.
    """
    proj = _factor_of(a)
    x = as_vector(x)
    mat = proj.matrix
    s = proj.min_norm(x)
    for _ in range(iterations):
        w = np.abs(s) ** (2.0 - p_norm) + regularizer
        gram = (mat * w) @ mat.T
        try:
            z = np.linalg.solve(gram, x)
        except np.linalg.LinAlgError:
            z, *_ = np.linalg.lstsq(gram, x, rcond=None)
        s = w * (mat.T @ z)
    return s


def write_report_csv(report: SolveReport, path) -> None:
    """One row per width with columns sigma, F, residual, inner_iters, then a
    summary row ``total`` with the final F, the final residual ‖A·ŝ − x‖ and
    the total inner-iteration count. A width row's residual is that level's
    pre-projection residual (see :class:`LevelTrace`)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "F", "residual", "inner_iters"])
        for entry in report.trace:
            writer.writerow(
                [
                    f"{entry.sigma:.17g}",
                    f"{entry.f_total:.17g}",
                    f"{entry.residual_norm:.17g}",
                    entry.inner_iterations,
                ]
            )
        writer.writerow(
            [
                "total",
                f"{report.trace[-1].f_total:.17g}" if report.trace else "",
                f"{report.residual_norm:.17g}",
                sum(e.inner_iterations for e in report.trace),
            ]
        )
