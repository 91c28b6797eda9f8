"""Smoothing families that approximate the indicator of zero.

Each family maps a scalar s to a value in [0, 1] that equals 1 at s = 0 and
dies off over a width controlled by sigma, so that summing it over a vector's
components gives a smooth stand-in for "m minus the number of nonzeros". The
solver ascends that sum; the step it uses is pre-scaled by sigma² so a single
step-size constant works across all smoothing widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveSigma

KINDS = ("gaussian", "triangular", "truncated_hyperbolic", "rational")

# Aliases accepted on the command line and in sweep grids.
_ALIASES = {"hyperbolic": "truncated_hyperbolic"}

# Scale of the derivative bound: max_s |d/ds value(s, sigma)| = gamma / sigma.
# gaussian: extremum of |s| e^{-s^2/2s^2}/s^2 at s = sigma; rational: at s = sigma/sqrt(3).
_DERIVATIVE_BOUND = {
    "gaussian": math.exp(-0.5),
    "triangular": 1.0,
    "truncated_hyperbolic": 2.0,
    "rational": 9.0 / (8.0 * math.sqrt(3.0)),
}


def _check_sigma(sigma) -> None:
    if np.any(np.asarray(sigma) <= 0.0):
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")


@dataclass(frozen=True)
class PenaltyFamily:
    """One of the four smoothing families, selected by ``kind``.

    All methods broadcast: ``s`` may be a scalar, a vector, or an m×T block,
    and ``sigma`` a scalar or a per-column row of widths.
    """

    kind: str = "gaussian"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _ALIASES.get(self.kind, self.kind))
        if self.kind not in KINDS:
            raise ValueError(f"unknown family {self.kind!r}; choose from {KINDS}")

    @property
    def is_smooth(self) -> bool:
        """Whether the family is differentiable everywhere (no kinks)."""
        return self.kind in ("gaussian", "rational")

    @property
    def derivative_bound(self) -> float:
        """Constant gamma with |d/ds value(s, sigma)| < gamma / sigma for all s."""
        return _DERIVATIVE_BOUND[self.kind]

    def value(self, s, sigma, out=None):
        """Pointwise smoothing value in [0, 1]; equals 1 at s = 0.

        ``out``, an array of the broadcast shape of ``s`` and ``sigma``,
        receives the values in place of a new array; they are bit-identical
        either way.
        """
        _check_sigma(sigma)
        s = np.asarray(s, dtype=float)
        return _unwrap(self._value_into(s, sigma, _out_for(s, sigma, out)))

    def _value_into(self, s, sigma, out):
        if self.kind == "gaussian":
            # exp(-(s·s) / (2σ²)): dividing by -2σ² rounds exactly as negating first.
            np.multiply(s, s, out=out)
            np.divide(out, -2.0 * np.square(sigma), out=out)
            return np.exp(out, out=out)
        if self.kind == "triangular":
            np.divide(np.abs(s, out=out), sigma, out=out)
        elif self.kind == "truncated_hyperbolic":
            np.square(np.divide(s, sigma, out=out), out=out)
        else:
            sig2 = np.square(sigma)
            np.multiply(s, s, out=out)
            return np.divide(sig2, np.add(out, sig2, out=out), out=out)
        return np.clip(np.subtract(1.0, out, out=out), 0.0, 1.0, out=out)

    def total(self, s, sigma, axis=None, out=None):
        """Sum of :meth:`value` over components (the smoothed inactive count).

        ``out`` is scratch for the values, as in :meth:`value`; the sum is
        bit-identical with or without it.
        """
        return np.sum(self.value(s, sigma, out=out), axis=axis)

    def ascent_direction(self, s, sigma, out=None):
        """Step -sigma²·∇ of :meth:`total`, componentwise.

        For the kinked families the derivative at |s| = sigma (and at 0 for
        the triangular one) is taken as 0, so the step vanishes there.
        ``out``, as in :meth:`value`, receives the step bit for bit as the
        allocating call gives it; only the rational family still allocates
        one temporary then.
        """
        _check_sigma(sigma)
        s = np.asarray(s, dtype=float)
        out = _out_for(s, sigma, out)
        if self.kind == "gaussian":
            np.multiply(s, self._value_into(s, sigma, out), out=out)
        elif self.kind in ("triangular", "truncated_hyperbolic"):
            inside = np.abs(np.divide(s, sigma, out=out), out=out) < 1.0
            if self.kind == "triangular":
                np.multiply(np.sign(s, out=out), sigma, out=out)
            else:
                np.multiply(2.0, s, out=out)
            np.copyto(out, 0.0, where=~inside)
        else:
            sig2 = np.square(sigma)
            numerator = 2.0 * s * sig2 * sig2
            np.multiply(s, s, out=out)
            np.square(np.add(out, sig2, out=out), out=out)
            np.divide(numerator, out, out=out)
        return _unwrap(out)


def _out_for(s, sigma, out):
    """``out``, or a new array of the broadcast shape of ``s`` and ``sigma``."""
    if out is None:
        out = np.empty(np.broadcast_shapes(s.shape, np.shape(sigma)))
    return out


def _unwrap(out):
    """A 0-d result as a numpy scalar, as elementwise arithmetic returns it."""
    return out if out.ndim else out[()]


def family_names() -> tuple[str, ...]:
    """Canonical kinds plus CLI aliases."""
    return KINDS + tuple(_ALIASES)
