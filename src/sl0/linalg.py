"""Dense linear-algebra kernel: minimum-norm solutions, affine feasible-set
projection, the unique-representation check, and the combinatorial constant
used by the error bounds.

The feasible set of an underdetermined system A·s = x (A of shape n×m with
n <= m and full row rank) is an affine subspace. Everything here is built on
one object, :class:`ProjectorFactor`, holding the precomputed pseudoinverse
A⁺ = Aᵀ(A·Aᵀ)⁻¹. Its operators ``min_norm`` (A⁺·x) and ``residual``
(A·s − x), all the annealing engine uses, are plain matrix products with
no factorization or triangular solve per call; ``project`` composes them.
"""

from __future__ import annotations

import io
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, NotURP, ParseError, RankDeficient, TooLarge

# Pragmatic double-precision cutoff: beyond this A·Aᵀ is treated as singular.
CONDITION_CUTOFF = 1e12

# The pseudoinverse taken through A·Aᵀ carries a relative error of about
# eps·cond(A·Aᵀ); above this condition number it gets one refinement step.
REFINE_CONDITION = 1e4

# Subset enumeration guard for check_urp / compute_M.
MAX_COLUMNS_FOR_ENUMERATION = 20


def as_real(v) -> np.ndarray:
    """``v`` as a float64 array: the package's one conversion of an array
    argument. Complex input raises ``ParseError`` rather than losing its
    imaginary part."""
    if np.iscomplexobj(v):
        raise ParseError("complex input is not supported; pass real values")
    return np.asarray(v, dtype=float)


def as_finite(v, ndim: int | None = None) -> np.ndarray:
    """``v`` through :func:`as_real`, of ``ndim`` dimensions when given, with
    at least one entry and every entry finite: the package's one reader of an
    array argument. A wrong rank or no entry raises ``DimensionMismatch``, a
    NaN or ±inf ``ParseError``."""
    out = as_real(v)
    if ndim is not None and out.ndim != ndim:
        raise DimensionMismatch(f"expected a {ndim}-D array, got ndim={out.ndim}")
    if out.size < 1:
        raise DimensionMismatch(f"array must have at least one entry, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ParseError("array contains NaN or Inf entries")
    return out


class ProjectorFactor:
    """Precomputed pseudoinverse A⁺ = Aᵀ(A·Aᵀ)⁻¹ of a full-row-rank wide
    matrix A.

    A⁺ is built once, from the inverse of A·Aᵀ, after that inverse has passed
    the condition check. The two operators the solver iterates on are then
    matrix products, ``min_norm(x) = A⁺·x`` and ``residual(s, x) = A·s − x``,
    and ``project`` composes them. Each checks its operands, which may be
    in either memory order. ``matrix`` is a C-ordered copy of A and A⁺ is
    F-ordered, the layout of the solver's m×T and n×T blocks.
    Everything runs in numpy, so the package uses one BLAS thread pool.
    Immutable after construction; safe to share across concurrent solves.
    The functions that take the matrix A to solve with accept its factor in
    its place.

    ``condition_estimate`` is the exact 1-norm condition number
    ‖A·Aᵀ‖₁·‖(A·Aᵀ)⁻¹‖₁, taken from the inverse the build needs anyway.
    Raises ``RankDeficient`` when it exceeds ``CONDITION_CUTOFF`` or is not
    finite (or the inversion fails outright), which also covers the n > m
    case.
    """

    def __init__(self, a) -> None:
        a = as_finite(a, 2).copy()
        n, m = a.shape
        if n > m:
            raise RankDeficient(f"matrix is {n}x{m}; need n <= m for an underdetermined system")
        gram = a @ a.T
        try:
            gram_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(f"A*A^T is singular: {exc}") from None
        self.condition_estimate = float(np.linalg.norm(gram, 1) * np.linalg.norm(gram_inv, 1))
        # A·Aᵀ is positive semidefinite, so a numerically singular or
        # indefinite Gram has κ₁ of order 1/eps and fails here; the test is
        # written so that a NaN κ₁ fails too.
        if not self.condition_estimate <= CONDITION_CUTOFF:
            raise RankDeficient(
                f"A*A^T condition number {self.condition_estimate:.3e} exceeds {CONDITION_CUTOFF:.0e}"
            )
        # Aᵀ·G⁻¹ as the transpose of the contiguous G⁻¹·A: the same product,
        # F-ordered, so BLAS multiplies it fastest with F-ordered blocks.
        pinv = (gram_inv @ a).T
        if self.condition_estimate > REFINE_CONDITION:
            # One Newton-Schulz step P <- P + P(I - A·P) squares the error,
            # so projections stay feasible up to the condition cutoff.
            pinv += pinv @ (np.eye(n) - a @ pinv)
        pinv.setflags(write=False)
        self._pinv = pinv
        self.matrix = a
        self.matrix.setflags(write=False)
        self.source_dims = (n, m)

    def min_norm(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Minimum Euclidean-norm solution A⁺·x of A·s = x, column by column,
        written into ``out`` when given: bit for bit the same into a
        C-ordered ``out``, to rounding into an F-ordered one (the solver's
        m×T blocks), for which BLAS takes the other operand order."""
        x = as_real(x)
        n, m = self.source_dims
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise DimensionMismatch(f"right-hand side of shape {x.shape} does not fit a {n}x{m} matrix")
        return np.matmul(self._pinv, x, out=out)

    def residual(self, s: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A·s − x, written into ``out`` when given; ``s`` has m rows and
        ``x`` the shape of A·s."""
        s, x = as_real(s), as_real(x)
        n, m = self.source_dims
        if s.ndim not in (1, 2) or s.shape[0] != m or x.shape != (n,) + s.shape[1:]:
            raise DimensionMismatch(
                f"point of shape {s.shape} and right-hand side of shape {x.shape} do not fit a {n}x{m} matrix"
            )
        r = np.matmul(self.matrix, s, out=out)
        r -= x
        return r

    def project(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Project ``s`` onto {s : A·s = x} as a new array,
        s − min_norm(residual(s, x)); fixes points already feasible."""
        return as_real(s) - self.min_norm(self.residual(s, x))

    def pinv_frobenius_norm(self) -> float:
        """Frobenius norm of Aᵀ(A·Aᵀ)⁻¹."""
        return float(np.linalg.norm(self._pinv))


# The factor last built by _factor_of. Callers stream many right-hand sides
# against one mixing matrix, so one slot serves them; it keeps that factor
# (about 2·n·m doubles) alive until a different matrix arrives.
_last_factor: ProjectorFactor | None = None


def _factor_of(a) -> ProjectorFactor:
    """The factor that serves ``a``: ``a`` itself when it is a
    :class:`ProjectorFactor`, else the last one built when its matrix equals
    ``a`` entry for entry, else a new one.

    The key is the matrix contents, never the array's identity, so callers
    may change their array in place between calls. Only a miss validates
    ``a``: a matrix equal to the kept one passes every check that one
    passed, and a NaN never equals itself, so a matrix holding one always
    misses and the build rejects it. No lock is needed: a thread reading a
    stale slot can only get a factor whose matrix equals ``a``, and two
    concurrent misses merely build twice.
    """
    global _last_factor
    if isinstance(a, ProjectorFactor):
        return a
    a = as_real(a)
    last = _last_factor
    if last is not None and np.array_equal(last.matrix, a):
        return last
    # Drop the slot's and this frame's references to the old factor first,
    # so they do not keep it alive while the new one is built.
    del last
    _last_factor = None
    factor = ProjectorFactor(a)
    _last_factor = factor
    return factor


def min_norm_solution(a, x) -> np.ndarray:
    """Minimum Euclidean-norm solution Aᵀ(A·Aᵀ)⁻¹x of the wide system A·s = x."""
    return _factor_of(a).min_norm(as_finite(x, 1))


def check_urp(a) -> bool:
    """True iff every n×n column submatrix of A is invertible.

    Determinants are taken after normalizing columns to unit length so the
    1e-10 magnitude threshold is scale-free. Raises ``TooLarge`` for more
    than ``MAX_COLUMNS_FOR_ENUMERATION`` columns.
    """
    a = as_finite(a, 2)
    n, m = a.shape
    if n > m:
        raise DimensionMismatch(f"need n <= m, got {a.shape}")
    if m > MAX_COLUMNS_FOR_ENUMERATION:
        raise TooLarge(f"subset enumeration limited to m <= {MAX_COLUMNS_FOR_ENUMERATION} columns, got m={m}")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        return False
    unit = a / norms
    for cols in combinations(range(m), n):
        if abs(np.linalg.det(unit[:, cols])) <= 1e-10:
            return False
    return True


def compute_M(a) -> float:
    """Largest Frobenius norm of a left inverse over all column subsets of
    size <= n, each left inverse being the Moore-Penrose pseudoinverse.

    Requires the unique-representation property and at most
    ``MAX_COLUMNS_FOR_ENUMERATION`` columns, as :func:`check_urp` does.
    Only the n-column subsets are enumerated: by Cauchy interlacing,
    ‖A_S′⁺‖_F² >= ‖A_S⁺‖_F² + 1/σ₁(A_S′)² for full-column-rank S ⊂ S′,
    so under the URP the maximum lies at size n.
    """
    a = as_finite(a, 2)
    n, m = a.shape
    if not check_urp(a):
        raise NotURP("matrix has a singular square column submatrix")
    return max(float(np.linalg.norm(np.linalg.pinv(a[:, cols]))) for cols in combinations(range(m), n))


# Text format: first line "rows cols", then whitespace-delimited rows. Values
# are written with 17 significant digits so doubles round-trip exactly.


def save_matrix(path, a) -> None:
    a = as_finite(a, 2)
    np.savetxt(path, a, fmt="%.17g", header=f"{a.shape[0]} {a.shape[1]}", comments="")


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    try:
        with path.open() as fh:
            head = next((ln for ln in fh if ln.strip()), None)
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None
    if head is None:
        raise ParseError(f"{path}: empty file")
    header = head.split()
    if len(header) != 2:
        raise ParseError(f"{path}: header must be 'rows cols', got {head.strip()!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"{path}: non-integer header {head.strip()!r}") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    if not body.strip():
        raise ParseError(f"{path}: expected {rows} data rows, found 0")
    try:
        data = np.loadtxt(io.StringIO(body), ndmin=2, comments=None)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if data.shape[0] != rows:
        raise ParseError(f"{path}: expected {rows} data rows, found {data.shape[0]}")
    if data.shape[1] != cols:
        raise ParseError(f"{path}: rows have {data.shape[1]} entries, expected {cols}")
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite entries")
    return data


def save_vector(path, v) -> None:
    save_matrix(path, as_finite(v, 1)[:, None])


def load_vector(path) -> np.ndarray:
    a = load_matrix(path)
    if a.shape[1] != 1:
        raise ParseError(f"{path}: expected a single-column vector file, got {a.shape[1]} columns")
    return a[:, 0]
