"""Exception types shared across the package."""


class Sl0Error(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(Sl0Error):
    """Operand shapes are inconsistent with each other."""


class RankDeficient(Sl0Error):
    """A·Aᵀ is numerically singular (1-norm condition number above the cutoff)."""


class TooLarge(Sl0Error):
    """Combinatorial guard tripped: the subset enumeration would be impractical."""


class NotURP(Sl0Error):
    """Matrix fails the unique-representation property (a square column
    submatrix is singular)."""


class NonPositiveSigma(Sl0Error):
    """Smoothing width must be strictly positive."""


class ThresholdUnreachable(Sl0Error):
    """Threshold-terminated solve hit its inner-iteration cap, which signals
    that the sigma sequence decreased too fast."""


class TooManyActive(Sl0Error):
    """Active count k must satisfy k < n/2 for the noisy floor rule."""


class ZeroVector(Sl0Error):
    """Operation is undefined on an all-zero vector."""


class ZeroReference(Sl0Error):
    """SNR is undefined against an all-zero reference signal."""


class ParseError(Sl0Error):
    """An input is malformed: a matrix/vector text file, non-finite entries,
    or complex values where the package takes real ones."""
