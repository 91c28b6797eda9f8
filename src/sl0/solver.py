"""Sparse recovery by graduated smoothing over a shrinking width sequence.

The solve starts from the minimum Euclidean-norm solution of A·s = x, then
walks a decreasing sequence of smoothing widths. At each width it takes a few
projected ascent steps on the smoothed sparsity measure: an elementwise shrink
step ``s <- s - mu * delta`` followed by projection back onto the feasible
set. Because each width is warm-started from the previous one, the iterate
tracks the maximizer as the surrogate sharpens toward the true nonzero count.

Two termination modes for the inner loop are supported: a fixed iteration
count ``L`` (the fast default) and a threshold mode that iterates until the
smoothed measure clears a target, which buys an a-posteriori error guarantee
at the price of a possible ``ThresholdUnreachable`` error when the width
sequence drops too fast.
"""

from __future__ import annotations

import csv
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


def validate_schedule(values) -> tuple[float, ...]:
    """Check a width sequence is positive and strictly decreasing."""
    out = tuple(float(v) for v in values)
    if len(out) < 1:
        raise ValueError("schedule must contain at least one width")
    if any(v <= 0.0 for v in out):
        raise ValueError(f"schedule widths must be positive: {out}")
    if any(b >= a for a, b in zip(out, out[1:])):
        raise ValueError(f"schedule must be strictly decreasing: {out}")
    return out


def geometric_schedule(sigma1: float, c: float, sigma_min: float) -> tuple[float, ...]:
    """Widths sigma1, c·sigma1, c²·sigma1, ... while above sigma_min, then
    sigma_min itself as the exact final value."""
    if sigma1 <= 0.0 or sigma_min <= 0.0:
        raise ValueError("sigma1 and sigma_min must be positive")
    if not 0.0 < c < 1.0:
        raise ValueError(f"decrease factor c must lie in (0, 1), got {c}")
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
            if not 0.0 < self.c < 1.0:
                raise ValueError(f"c must lie in (0, 1), got {self.c}")
            if self.sigma_min <= 0.0:
                raise ValueError("sigma_min must be positive")
            if self.sigma1 is not None and self.sigma1 <= 0.0:
                raise ValueError("sigma1 must be positive")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
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


@dataclass(frozen=True)
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


def _projector_for(a, projector: ProjectorFactor | None) -> ProjectorFactor:
    """``projector`` once checked against the shape of ``a``, or the factor
    of ``a`` when none is given."""
    if projector is None:
        return _factor_of(a)
    n, m = projector.source_dims
    if np.shape(a) != (n, m):
        raise DimensionMismatch(f"projector was built for a {n}x{m} matrix, got shape {np.shape(a)}")
    return projector


def sl0_solve(a, x, cfg: SolverConfig | None = None, *, projector: ProjectorFactor | None = None) -> SolveReport:
    """Recover a sparse solution of the underdetermined system A·s = x.

    The factorization of A·Aᵀ (with its row-rank check) is built on the
    first call for a matrix and reused by later calls, from any caller,
    while the matrix passed in equals it entry for entry; only the last
    matrix's factor is kept. A caller alternating several matrices can build
    one ``ProjectorFactor`` per matrix and pass it as ``projector``; it must
    have been built for a matrix of the shape of ``a``. The estimate is the
    same either way. This is :func:`sl0_solve_batch` on a block of one
    column, so ``wall_time`` is the whole call's.
    """
    return sl0_solve_batch(a, as_vector(x)[:, None], cfg, projector=projector)[0]


def _threshold_solve(proj: ProjectorFactor, x: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Threshold-mode solve of one right-hand side: at each width, steps
    until the smoothed measure reaches the target. The report carries no
    wall time."""
    n, m = proj.source_dims
    s = proj.min_norm(x)
    schedule = cfg.resolve_schedule(s)
    if schedule is None:
        s, schedule = np.zeros(m), ()
    target = cfg.target_f if cfg.target_f is not None else m - n / 2.0
    fam = cfg.family
    trace: list[LevelTrace] = []
    r = np.empty(n)
    for sigma in schedule:
        inner = 0
        f_total = fam.total(s, sigma)
        while f_total < target:
            if inner >= cfg.max_inner:
                raise ThresholdUnreachable(
                    f"smoothed measure stuck below {target:.6g} after {inner} inner steps at "
                    f"sigma={sigma:.6g}; the width sequence likely decreased too fast"
                )
            s = s - cfg.mu * fam.ascent_direction(s, sigma)
            s = proj.project(s, x, residual=r)
            inner += 1
            f_total = fam.total(s, sigma)
        trace.append(
            LevelTrace(
                sigma=float(sigma),
                f_total=float(f_total),
                residual_norm=float(np.linalg.norm(r)) if inner else 0.0,
                inner_iterations=inner,
                estimate=s.copy() if cfg.record_estimates else None,
            )
        )
    return SolveReport(s, trace, residual_norm=float(np.linalg.norm(proj.matrix @ s - x)))


def sl0_solve_batch(
    a, x_block, cfg: SolverConfig | None = None, *, projector: ProjectorFactor | None = None
) -> list[SolveReport]:
    """Solve one system per column of an n×T block of right-hand sides.

    A single factorization of A·Aᵀ is shared across columns, and in fixed
    mode all columns advance together through matrix-shaped steps, so the
    per-sample cost drops well below that of repeated single solves. Each
    returned report carries the per-sample share of the batch wall time.
    A fixed-mode call works in place on (2m + n)·T doubles of workspace
    (19.2 MB at 400×1000 and T = 1000), allocated once and freed when it
    returns; the estimates it returns take m·T more.
    Successive blocks on an unchanged matrix reuse its factorization, and
    ``projector`` serves callers alternating several matrices, both as in
    :func:`sl0_solve`.
    """
    cfg = cfg or SolverConfig()
    started = time.perf_counter()
    proj = _projector_for(a, projector)
    n, m = proj.source_dims
    x_block = as_matrix(x_block)
    if x_block.shape[0] != n:
        raise DimensionMismatch(f"right-hand sides have length {x_block.shape[0]}, expected {n}")
    t_count = x_block.shape[1]

    if cfg.mode == "fixed":
        reports = _anneal_block(proj, x_block, [cfg] * t_count)
    else:
        reports = [_threshold_solve(proj, x_block[:, t], cfg) for t in range(t_count)]
    per_sample = (time.perf_counter() - started) / t_count
    for rep in reports:
        rep.wall_time = per_sample
    return reports


def _anneal_block(proj: ProjectorFactor, x_block: np.ndarray, cfgs) -> list[SolveReport]:
    """Fixed-mode solves of every column of ``x_block`` in lockstep, column t
    under ``cfgs[t]``.

    The configs may differ in their widths but must share family, mu, L and
    record_estimates; the first one's are used. The columns are ordered by
    schedule length, longest first, so the columns still annealing at each
    level are the leading ones; when a column's schedule runs out, its
    estimate is copied out and the columns still annealing are packed into
    a contiguous block, so each column gets exactly the steps of its own
    solve. Every step runs in place on three workspaces allocated once: the
    m×T iterate block, an m×T step block and an n×T residual block. Each
    level's residual is the one its last projection formed; the columns
    that finish together take one more product for their final residual.
    The reports come back in the column order of ``x_block`` and carry no
    wall time.
    """
    cfg = cfgs[0]
    fam, mu = cfg.family, cfg.mu
    n, m = proj.source_dims
    t_count = x_block.shape[1]
    # Flat buffers: k active columns are the C-ordered m×k (n×k) block at
    # the front of each, so every elementwise step runs on contiguous memory.
    s_buf, step_buf, r_buf = np.empty(m * t_count), np.empty(m * t_count), np.empty(n * t_count)
    s = proj.min_norm(x_block, out=s_buf.reshape(m, t_count))
    schedules = []
    for t, col_cfg in enumerate(cfgs):
        sched = col_cfg.resolve_schedule(s[:, t])
        schedules.append(sched if sched is not None else ())
        if sched is None:
            s[:, t] = 0.0
    order = sorted(range(t_count), key=lambda t: -len(schedules[t]))
    x = x_block
    if order != sorted(order):
        # mode="clip" writes straight into ``out``; the default mode buffers.
        s = np.take(s, order, axis=1, out=step_buf.reshape(m, t_count), mode="clip")
        s_buf, step_buf = step_buf, s_buf
        x = x_block[:, order]
        schedules = [schedules[t] for t in order]
    traces: list[list[LevelTrace]] = [[] for _ in range(t_count)]
    reports: list[SolveReport] = [None] * t_count

    def final_residuals(first: int, last: int) -> np.ndarray:
        # One product, into the residual workspace, for the columns finishing together.
        r = np.matmul(proj.matrix, s[:, first:last], out=r_buf[: n * (last - first)].reshape(n, last - first))
        r -= x[:, first:last]
        return _column_norms(r)

    def finish(first: int, last: int, resid: np.ndarray) -> None:
        for pos in range(first, last):
            reports[order[pos]] = SolveReport(s[:, pos].copy(), traces[pos], residual_norm=float(resid[pos - first]))

    active = t_count
    for level in range(len(schedules[0])):
        still = sum(len(sch) > level for sch in schedules[:active])
        if still < active:
            finish(still, active, final_residuals(still, active))
            packed = step_buf[: m * still].reshape(m, still)
            packed[...] = s[:, :still]
            s, s_buf, step_buf, active = packed, step_buf, s_buf, still
        step = step_buf[: m * active].reshape(m, active)
        r = r_buf[: n * active].reshape(n, active)
        x_act = x[:, :active]
        sigmas = np.array([sch[level] for sch in schedules[:active]])
        for _ in range(cfg.L):
            fam.ascent_direction(s, sigmas, out=step)
            step *= mu
            s -= step
            proj.project(s, x_act, out=step, residual=r)
        f_tot = fam.total(s, sigmas, axis=0, out=step)
        # ``r`` still holds A·s − x of the last step before its projection.
        resid = _column_norms(r)
        for pos in range(active):
            traces[pos].append(
                LevelTrace(
                    sigma=float(sigmas[pos]),
                    f_total=float(f_tot[pos]),
                    residual_norm=float(resid[pos]),
                    inner_iterations=cfg.L,
                    estimate=s[:, pos].copy() if cfg.record_estimates else None,
                )
            )
    resid = final_residuals(0, active)
    # Release the step and residual buffers before the last estimates are copied out.
    step_buf = r_buf = step = r = None
    finish(0, active, resid)
    return reports


def _column_norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of ``r``, summed as np.linalg.norm
    sums them; ``r`` is overwritten with its squares."""
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


def irls_solve(
    a, x, p_norm: float = 0.0, iterations: int = 50, regularizer: float = 1e-8, *, projector: ProjectorFactor | None = None
) -> np.ndarray:
    """Iteratively reweighted least-squares baseline.

    Repeats s <- W·Aᵀ(A·W·Aᵀ)⁻¹·x with W = diag(|s_i|^(2-p) + regularizer),
    starting from the minimum-norm solution. Each iterate is feasible by
    construction. ``projector`` is a prebuilt factor of ``a``, as in
    :func:`sl0_solve`.
    """
    proj = _projector_for(a, projector)
    n, _ = proj.source_dims
    x = as_vector(x)
    if x.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has length {x.shape[0]}, expected {n}")
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
