"""Shared fixtures and independent oracles used across the suite.

The oracles here deliberately avoid the library's own code paths: sparsest
solutions come from exhaustive support enumeration with least squares, and
matrix constants from direct normal-equation formulas, so the tests compare
two unrelated routes to the same value.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

import sl0.linalg


def sparsest_by_enumeration(a: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Sparsest solution of A·s = x by trying supports in order of size."""
    n, m = a.shape
    scale = max(1.0, float(np.linalg.norm(x)))
    if np.linalg.norm(x) <= tol * scale:
        return np.zeros(m)
    for size in range(1, n + 1):
        best = None
        for cols in combinations(range(m), size):
            sub = a[:, list(cols)]
            coef, *_ = np.linalg.lstsq(sub, x, rcond=None)
            if np.linalg.norm(sub @ coef - x) <= tol * scale:
                s = np.zeros(m)
                s[list(cols)] = coef
                if best is None or np.linalg.norm(s) < np.linalg.norm(best):
                    best = s
        if best is not None:
            return best
    raise AssertionError("no feasible support found up to size n")


def frobenius_left_inverse_norm(sub: np.ndarray) -> float:
    """‖pinv(sub)‖_F via the normal-equation identity trace((subᵀsub)⁻¹)."""
    return float(np.sqrt(np.trace(np.linalg.inv(sub.T @ sub))))


def max_left_inverse_norm(a: np.ndarray) -> float:
    """Exhaustive-subset oracle for the bound constant of a small matrix."""
    n, m = a.shape
    worst = 0.0
    for size in range(1, n + 1):
        for cols in combinations(range(m), size):
            worst = max(worst, frobenius_left_inverse_norm(a[:, list(cols)]))
    return worst


def literal_sl0(a: np.ndarray, x: np.ndarray, sigmas, mu: float, L: int, family: str) -> np.ndarray:
    """The paper's loop for one sample, written out: s = A⁺x from
    ``np.linalg.pinv``, then at each width σ, L times, the ascent step
    s ← s − μ·(−σ²∇F_σ(s)) and the projection s ← s − A⁺(A·s − x)."""
    pinv = np.linalg.pinv(a)
    s = pinv @ x
    for sigma in sigmas:
        for _ in range(L):
            s = _literal_step(pinv, a, x, s, sigma, mu, family)
    return s


def literal_sl0_threshold(a: np.ndarray, x: np.ndarray, sigmas, mu: float, target: float, max_inner: int):
    """The threshold form of :func:`literal_sl0` for the gaussian family,
    the one threshold mode supports: at each width σ, the projected step
    while F_σ(s) = Σᵢ exp(−sᵢ²/2σ²) is below ``target``. Returns the
    estimate and the step count of each width, or None when a width has
    taken ``max_inner`` steps with F_σ still below the target."""
    pinv = np.linalg.pinv(a)
    s = pinv @ x
    counts = []
    for sigma in sigmas:
        steps = 0
        while np.sum(np.exp(-(s**2) / (2.0 * sigma**2))) < target:
            if steps == max_inner:
                return None
            s = _literal_step(pinv, a, x, s, sigma, mu, "gaussian")
            steps += 1
        counts.append(steps)
    return s, counts


def _literal_step(pinv: np.ndarray, a: np.ndarray, x: np.ndarray, s: np.ndarray, sigma: float, mu: float, family: str):
    """One ascent step s ← s − μ·(−σ²∇F_σ(s)), then the projection
    s ← s − A⁺(A·s − x)."""
    if family == "gaussian":
        delta = s * np.exp(-(s**2) / (2.0 * sigma**2))
    elif family == "rational":
        delta = 2.0 * s * sigma**4 / (s**2 + sigma**2) ** 2
    elif family == "triangular":
        delta = np.where(np.abs(s) < sigma, sigma * np.sign(s), 0.0)
    elif family == "truncated_hyperbolic":
        delta = np.where(np.abs(s) < sigma, 2.0 * s, 0.0)
    else:
        raise ValueError(f"no formula for family {family!r}")
    s = s - mu * delta
    return s - pinv @ (a @ s - x)


def unit_column_matrix(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    a = rng.standard_normal((n, m))
    return a / np.linalg.norm(a, axis=0)


def one_sparse_instance(rng: np.random.Generator, n: int = 3, m: int = 6):
    """Random unit-column system with a 1-sparse ground truth."""
    a = unit_column_matrix(rng, n, m)
    s0 = np.zeros(m)
    s0[rng.integers(m)] = rng.standard_normal() + np.sign(rng.standard_normal()) * 0.5
    return a, s0, a @ s0


@pytest.fixture
def announce(capsys):
    """Print a line through pytest's capture, for per-criterion verdicts."""

    def _print(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _print


@pytest.fixture
def factor_builds(monkeypatch):
    """Empty the package's factor slot and record the matrix of every
    ProjectorFactor built from then on; the fixture value is that list."""
    built = []
    original = sl0.linalg.ProjectorFactor.__init__

    def counting_init(self, a):
        built.append(np.array(a, dtype=float))
        original(self, a)

    monkeypatch.setattr(sl0.linalg, "_last_factor", None)
    monkeypatch.setattr(sl0.linalg.ProjectorFactor, "__init__", counting_init)
    return built
