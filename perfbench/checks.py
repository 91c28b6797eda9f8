"""Checks of the solver's estimates, computed in numpy apart from the program.

Each estimate must be feasible (it satisfies A·ŝ = x to a relative
tolerance) and recovered (its SNR against the truth the benchmark drew
clears a floor). The README gives the reasons for both numbers.
"""

from __future__ import annotations

import numpy as np

# Relative residual ‖A·ŝ − x‖ / ‖x‖ an estimate may keep. The solver ends on
# a projection onto the feasible set, so its residuals sit near 1e-15; the
# tolerance leaves six orders of magnitude for rounding and none for an
# estimate that missed the constraint.
RESIDUAL_TOL = 1e-9

# Recovery floor in dB. The trivial feasible answer, the minimum-norm start,
# scores about 2.2 dB on these problems; a solve scores about 31 dB at the
# median. The floor rejects the first and stays below the rare draws whose
# active count lies far above its mean (6.5 dB at the worst of 1000 solves
# with 160 active sources, a draw of probability 1e-9).
SNR_FLOOR_DB = 6.0


def _columns(v: np.ndarray) -> np.ndarray:
    return v.reshape(v.shape[0], -1)


def snr_db(s_true: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    """Per-column 20·log10(‖s‖ / ‖s − ŝ‖) of two m×T blocks (or vectors)."""
    s_true = _columns(s_true)
    s_hat = _columns(s_hat)
    err = np.linalg.norm(s_true - s_hat, axis=0)
    ref = np.linalg.norm(s_true, axis=0)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(ref / err)


def relative_residual(a: np.ndarray, x: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    """Per-column ‖A·ŝ − x‖ / ‖x‖."""
    x = _columns(x)
    s_hat = _columns(s_hat)
    return np.linalg.norm(a @ s_hat - x, axis=0) / np.linalg.norm(x, axis=0)


def check_estimates(a, x, s_true, s_hat) -> tuple[bool, np.ndarray, str]:
    """Return (ok, per-column SNR in dB, reason when not ok)."""
    if s_hat.shape != s_true.shape or not np.all(np.isfinite(s_hat)):
        return False, np.zeros(0), f"estimate has shape {s_hat.shape} or non-finite entries"
    resid = relative_residual(a, x, s_hat)
    snrs = snr_db(s_true, s_hat)
    if np.max(resid) > RESIDUAL_TOL:
        return False, snrs, f"infeasible: relative residual {np.max(resid):.3e} > {RESIDUAL_TOL:.0e}"
    if np.min(snrs) < SNR_FLOOR_DB:
        return False, snrs, f"not recovered: SNR {np.min(snrs):.2f} dB < {SNR_FLOOR_DB} dB"
    return True, snrs, ""
