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
import numbers
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, ThresholdUnreachable, TooManyActive, ZeroVector
from .linalg import _factor_of, as_finite, compute_M
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
    if sigma1 is not None:
        _check_real("sigma1", sigma1, 0.0)
    _check_real("sigma_min", sigma_min, 0.0)
    _check_real("c", c, 0.0, 1.0)
    levels = 1 if sigma1 is None else math.ceil((math.log(sigma_min) - math.log(sigma1)) / math.log(c)) + 1
    if levels > MAX_LEVELS:
        raise ValueError(f"sigma1={sigma1}, c={c} and sigma_min={sigma_min} give {levels} widths, over {MAX_LEVELS}")


def _check_real(name: str, value, low=-math.inf, high=math.inf, closed=False) -> None:
    """A real setting is an int or float (numpy's too), not a ``bool`` or a type numpy cannot use such as
    ``Fraction``, finite as a float (an int is compared exactly), in (low, high), or [low, high] if ``closed``."""
    real = isinstance(value, (numbers.Integral, float, np.floating)) and not isinstance(value, bool)
    real = real and (abs(value) <= sys.float_info.max if isinstance(value, numbers.Integral) else math.isfinite(value))
    if not (real and (low <= value <= high if closed else low < value < high)):
        interval = f"{'[' if closed else '('}{low:g}, {high:g}{']' if closed else ')'}"
        words = {"(0, inf)": "positive and finite", "[0, inf]": "non-negative and finite", "(-inf, inf)": "finite"}
        rule = f"be {words[interval]}" if interval in words else f"lie in {interval}"
        raise ValueError(f"{name} must {rule}, got {value!r}")


def _check_integer(name: str, value) -> None:
    """An integer is a ``numbers.Integral``, numpy integers included, but
    not a ``bool``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, least: int = 1) -> None:
    """A count is an integer of at least ``least``."""
    _check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def _check_irls(p_norm, iterations, regularizer, prefix: str = "") -> None:
    """The ranges of :func:`irls_solve`'s settings, each named in an error
    with ``prefix`` before it; p in [0, 2] keeps the exponent 2 − p there."""
    _check_count(f"{prefix}iterations", iterations, least=0)
    _check_real(f"{prefix}p_norm", p_norm, 0.0, 2.0, closed=True)
    _check_real(f"{prefix}regularizer", regularizer, 0.0, closed=True)


def validate_schedule(values) -> tuple[float, ...]:
    """A width sequence as floats: one or more widths, each a real setting
    > 0 named by its position, strictly decreasing. A string or a single
    number is not a sequence."""
    if np.ndim(values) != 1 or len(values) == 0:
        raise ValueError(f"schedule must be a sequence of one or more widths, got {values!r}")
    for i, v in enumerate(values):
        _check_real(f"schedule[{i}]", v, 0.0)
    out = tuple(float(v) for v in values)
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
    s0 = as_finite(s0, 1)
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

    def __post_init__(self) -> None:
        if not isinstance(self.family, PenaltyFamily):
            object.__setattr__(self, "family", PenaltyFamily(self.family))
        if self.schedule is not None:
            if any(getattr(self, f.name) != f.default for f in fields(SolverConfig) if f.name in GEOMETRIC_FIELDS):
                raise ValueError("an explicit schedule ignores sigma1, c and sigma_min; set schedule=None to use them")
            object.__setattr__(self, "schedule", validate_schedule(self.schedule))
        else:
            _check_geometric(self.sigma1, self.c, self.sigma_min)
        _check_real("mu", self.mu, 0.0)
        if self.target_f is not None:
            _check_real("target_f", self.target_f)
        _check_count("L", self.L)
        _check_count("max_inner", self.max_inner)
        if self.mode not in ("fixed", "threshold"):
            raise ValueError(f"mode must be 'fixed' or 'threshold', got {self.mode!r}")

    def resolve_schedule(self, s0: np.ndarray) -> tuple[float, ...]:
        """Widths to run for an initial iterate; empty when the start width is
        undefined (auto selection on an all-zero iterate), which is then the
        estimate."""
        if self.schedule is not None:
            return self.schedule
        sigma1 = self.sigma1
        if sigma1 is None:
            if not np.any(s0):
                return ()
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


def sl0_solve(a, x, cfg: SolverConfig | None = None, *, record_estimates=False) -> SolveReport:
    """Recover a sparse solution of the underdetermined system A·s = x.

    ``a`` is the matrix A or a ``ProjectorFactor`` of it. For a matrix, the
    factorization of A·Aᵀ (with its row-rank check) is built on the first
    call and reused by later calls, from any caller, while the matrix passed
    in equals it entry for entry; only the last matrix's factor is kept. A
    caller alternating several matrices can build one ``ProjectorFactor``
    per matrix and pass it as ``a``. The estimate is the same either way.
    With ``record_estimates`` each trace level keeps a copy of its iterate.
    This is :func:`sl0_solve_batch` on a block of one column, so
    ``wall_time`` is the whole call's.
    """
    return sl0_solve_batch(a, as_finite(x, 1)[:, None], cfg, record_estimates=record_estimates)[0]


def sl0_solve_batch(a, x_block, cfg: SolverConfig | None = None, *, record_estimates=False) -> list[SolveReport]:
    """Solve one system per column of an n×T block of right-hand sides.

    A single factorization of A·Aᵀ is shared across columns, which advance
    together through matrix-shaped steps, so the per-sample cost drops well
    below that of repeated single solves; each estimate equals its single
    solve to rounding, and in threshold mode the lowest column that cannot
    reach the target raises its ``ThresholdUnreachable`` after the block.
    Each returned report carries the per-sample share of the batch wall
    time. A call works in place on (2m + 2n)·T doubles of workspace (22.4 MB
    at 400×1000 and T = 1000), allocated once and freed when it returns; the
    estimates it returns take m·T more, ``record_estimates`` m·T per level.
    ``a`` is the matrix or its factor, as in :func:`sl0_solve`, so
    successive blocks on an unchanged matrix reuse its factorization.
    """
    cfg = cfg or SolverConfig()
    started = time.perf_counter()
    proj = _factor_of(a)
    x_block = as_finite(x_block, 2)
    t_count = x_block.shape[1]
    reports = _anneal_block(proj, x_block, [cfg] * t_count, record_estimates)
    per_sample = (time.perf_counter() - started) / t_count
    for rep in reports:
        if isinstance(rep, ThresholdUnreachable):
            raise rep
        rep.wall_time = per_sample
    return reports


def _anneal_block(proj, x_block: np.ndarray, cfgs, record_estimates=False) -> list[SolveReport | ThresholdUnreachable]:
    """Solves of every column of ``x_block`` in lockstep, column t under
    ``cfgs[t]``, each trace level keeping a copy of its iterate if
    ``record_estimates``.

    The configs may differ in the :data:`WIDTH_FIELDS` alone; the first
    one's other settings are used. Every step runs in place on F-ordered
    workspaces allocated once, the m×T iterate and step blocks and the n×T
    residual block, beside an F-ordered copy of the right-hand sides. The
    columns are ordered by schedule length, longest first, so the k columns
    whose schedules reach a level are the leading m×k (n×k) block; the
    others take no more steps and already hold their estimates. A
    fixed-mode level takes L steps. A threshold-mode level steps until every
    column's smoothed measure, evaluated on the block at each check, has
    reached the target; a column that has reached it takes zero steps until
    the level ends, so each column gets exactly the steps of its own solve.
    A column still below the target after max_inner steps is frozen, and its
    ``ThresholdUnreachable`` goes straight into its report slot. Each level
    appends one record of its columns' widths, F, residuals (those their
    last projections formed), step counts and, if ``record_estimates``,
    iterates. After the last level one product over the whole block gives
    every final residual, the step, residual and right-hand-side blocks are
    freed, and each estimate is copied out once with the trace its records
    give. The reports come back in the column order of ``x_block`` and
    carry no wall time. Of the factor ``proj`` (a ``ProjectorFactor``), only
    ``source_dims``, ``min_norm`` and ``residual`` are used.
    """
    cfg = cfgs[0]
    fam, mu = cfg.family, cfg.mu
    n, m = proj.source_dims
    target = cfg.target_f if cfg.target_f is not None else m - n / 2.0
    t_count = x_block.shape[1]
    x = np.asfortranarray(x_block)
    s_all, step_all, r_all = (np.empty((rows, t_count), order="F") for rows in (m, m, n))
    proj.min_norm(x, out=s_all)
    schedules = [col_cfg.resolve_schedule(s_all[:, t]) for t, col_cfg in enumerate(cfgs)]
    order = sorted(range(t_count), key=lambda t: -len(schedules[t]))
    if order != sorted(order):
        for pos, t in enumerate(order):  # column copies into the spare block need no m×T temporary
            step_all[:, pos] = s_all[:, t]
        s_all, step_all, x = step_all, s_all, x[:, order]
        schedules = [schedules[t] for t in order]
    reports: list[SolveReport | ThresholdUnreachable | None] = [None] * t_count
    levels = []  # per level: its columns' widths, F, residuals, step counts and iterates

    def ascend(scale) -> None:
        # s <- s − scale·Δ, then the projection s <- s − A⁺r, r = A·s − x kept in ``r``.
        fam.ascent_direction(s, sigmas, out=step)
        np.multiply(step, scale, out=step)
        np.subtract(s, step, out=s)
        proj.residual(s, x_act, out=r)
        np.subtract(s, proj.min_norm(r, out=step), out=s)

    for level in range(len(schedules[0])):
        active = sum(len(sch) > level for sch in schedules)
        s, step, r, x_act = s_all[:, :active], step_all[:, :active], r_all[:, :active], x[:, :active]
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
                ascend(mu * going)
                np.copyto(resid, _column_norms(r), where=going)
                inner += going
                f_now = fam.total(s, sigmas, axis=0, out=step)
                np.copyto(f_tot, f_now, where=going)
                going &= f_now < target
        else:
            for _ in range(cfg.L):
                ascend(mu)
            f_tot = fam.total(s, sigmas, axis=0, out=step)
            # ``r`` still holds A·s − x of the last step before its projection.
            resid = _column_norms(r)
            inner = np.full(active, cfg.L)
        estimates = [s[:, pos].copy() for pos in range(active)] if record_estimates else [None] * active
        levels.append((sigmas.tolist(), f_tot.tolist(), resid.tolist(), inner.tolist(), estimates))
    final = _column_norms(proj.residual(s_all, x, out=r_all))
    step_all = r_all = x = step = r = x_act = None
    for pos, t in enumerate(order):
        if reports[t] is None:
            depth = len(schedules[pos])
            trace = [LevelTrace(w[pos], f[pos], res[pos], k[pos], e[pos]) for w, f, res, k, e in levels[:depth]]
            reports[t] = SolveReport(s_all[:, pos].copy(), trace, residual_norm=float(final[pos]))
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
    when omitted). Requires the active count k, an integer of at least 0,
    below n/2 and blows up as k approaches that limit; ``epsilon`` must be
    non-negative and finite, and ``gamma`` positive and finite. With exact
    measurements (epsilon = 0) the floor is 0 and the width may shrink
    arbitrarily.
    """
    _check_count("k", k, least=0)
    _check_real("epsilon", epsilon, 0.0, closed=True)
    if gamma is None:
        gamma = PenaltyFamily("gaussian").derivative_bound
    _check_real("gamma", gamma, 0.0)
    proj = _factor_of(a)
    n, m = proj.source_dims
    if k >= n / 2.0:
        raise TooManyActive(f"need k < n/2 = {n / 2}, got k={k}")
    return m * gamma * epsilon * proj.pinv_frobenius_norm() / (n - 2.0 * k)


def error_upper_bound(a, s_hat) -> float:
    """A-posteriori bound on the distance from a feasible estimate to the
    (at most n/2-sparse) true solution: (M+1)·m·alpha, where alpha is the
    (floor(n/2)+1)-th largest magnitude of the estimate.

    Exact for estimates with at most floor(n/2) nonzeros (alpha = 0). Only
    available under the small-instance guard of :func:`compute_M`.
    """
    a = as_finite(a, 2)
    s_hat = as_finite(s_hat, 1)
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
    dense ``matrix``. ``p_norm`` must lie in [0, 2], ``iterations`` be an
    integer of at least 0 and ``regularizer`` non-negative and finite.
    """
    _check_irls(p_norm, iterations, regularizer)
    proj = _factor_of(a)
    x = as_finite(x, 1)
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
    trace = report.trace
    rows = [dict(sigma=e.sigma, F=e.f_total, residual=e.residual_norm, inner_iters=e.inner_iterations) for e in trace]
    final_f, inner = (trace[-1].f_total if trace else ""), sum(e.inner_iterations for e in trace)
    total = dict(sigma="total", F=final_f, residual=report.residual_norm, inner_iters=inner)
    _write_rows(rows + [total], path)


def _write_rows(rows: list[dict], path) -> None:
    """Rows as CSV under the keys of the first row, floats to 17 significant
    digits, so that each reads back as the value written, other cells as
    ``str`` gives them."""
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            cells = [row[k] for k in header]
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in cells])
