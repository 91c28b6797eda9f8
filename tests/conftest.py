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
