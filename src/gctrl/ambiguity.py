"""Volatility ambiguity set and its worst-case expectation generators.

The ambiguity set is the box of symmetric matrices whose eigenvalues lie
between two variance bounds.  The generators take a symmetric matrix A and
return half the supremum (upper) or infimum (lower) of tr(A @ L) over the
box, together with the matrix attaining it.  These are the nonlinear
second-order coefficients of every solver in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import NumericError

# Relative asymmetry accepted before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-10
# Absolute eigenvalue slack in membership tests, absorbs eigensolver noise.
MEMBERSHIP_ATOL = 1e-9

_DIRECTIONS = ("upper", "lower")


def _check_direction(direction: str) -> str:
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    return direction


@dataclass(frozen=True)
class AmbiguitySet:
    """Box of admissible instantaneous covariance matrices in dimension ``dim``.

    A symmetric matrix L belongs to the set iff every eigenvalue of L lies in
    [sigma_lo_sq, sigma_hi_sq].  Both bounds are variances (sigma squared).
    """

    dim: int
    sigma_lo_sq: float
    sigma_hi_sq: float

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, Integral) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        lo, hi = float(self.sigma_lo_sq), float(self.sigma_hi_sq)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("variance bounds must be finite")
        if not 0.0 < lo <= hi:
            raise ValueError(
                f"variance bounds must satisfy 0 < sigma_lo_sq <= sigma_hi_sq, "
                f"got ({lo}, {hi})"
            )

    @property
    def degenerate(self) -> bool:
        """True when both bounds coincide and the set is a single matrix."""
        return self.sigma_lo_sq == self.sigma_hi_sq


@dataclass(frozen=True)
class GValue:
    """Generator value together with the matrix in the set attaining it."""

    value: float
    maximizer: np.ndarray = field(repr=False)


def _symmetric_parts(a, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The float stack (..., d, d) of ``a`` as its symmetric parts (a + a^T) / 2,
    and a mask of the members whose asymmetry stays within SYMMETRY_RTOL of their
    own scale.  A scalar or 1-element array is one 1x1 matrix.  ValueError
    unless the last two axes are square, and dim x dim when ``dim`` is given.
    """
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {arr.shape[-1]}x{arr.shape[-1]}")
    flipped = arr.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
    symmetric = ~(np.abs(arr - flipped).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale)
    return 0.5 * (arr + flipped), symmetric


def as_symmetric(a, dim: int | None = None) -> np.ndarray:
    """Validate ``a`` as a symmetric square matrix and return (a + a.T) / 2.

    Scalars and 1-element arrays are promoted to 1x1 matrices.  Asymmetry
    beyond SYMMETRY_RTOL (relative to the matrix scale) is an error.
    """
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    sym, symmetric = _symmetric_parts(arr, dim)
    if not symmetric:
        raise ValueError("matrix is not symmetric within tolerance")
    return sym


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, stacked; a stacked matmul keeps np.dot's
    reduction, hence its bits, on every member (a plain sum or einsum does not)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _eigh(sym: np.ndarray):
    try:
        return np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericError(f"symmetric eigendecomposition failed: {exc}") from exc


def g_scalar(alpha: float | np.ndarray, set_: AmbiguitySet,
             direction: str = "upper") -> float | np.ndarray:
    """One-dimensional generator: half the extremal variance times alpha.

    upper: 0.5 * (hi * max(alpha, 0) - lo * max(-alpha, 0))
    lower: 0.5 * (lo * max(alpha, 0) - hi * max(-alpha, 0))

    A scalar alpha gives a float; an array gives the generator elementwise.
    """
    _check_direction(direction)
    if set_.dim != 1:
        raise ValueError(f"g_scalar requires a 1-dimensional ambiguity set, got dim={set_.dim}")
    a = np.asarray(alpha, dtype=float)
    pos, neg = np.maximum(a, 0.0), np.maximum(-a, 0.0)
    lo, hi = set_.sigma_lo_sq, set_.sigma_hi_sq
    value = 0.5 * (hi * pos - lo * neg) if direction == "upper" else 0.5 * (lo * pos - hi * neg)
    return float(value) if value.ndim == 0 else value


def g_stack(a, lo, hi, direction: str = "upper") -> GValue:
    """The generator over a stack: ``a`` is (..., d, d), each member held to its
    own box [lo, hi] of variances, given as arrays of the stack's shape or as scalars.

    Returns the values (...) and the attaining matrices (..., d, d).  Each
    member's bits are those of ``g_matrix`` on it alone, which is this on a
    stack of one.  The extremum is attained at a matrix sharing the eigenbasis
    of the member; each eigen-direction picks the high variance where the
    matching eigenvalue is positive and the low variance where it is negative
    (mirrored for the lower direction).  Zero eigenvalues take the high
    variance (upper) or the low variance (lower) so the attaining matrix is
    deterministic; the value is unaffected.  ValueError if a member is not
    symmetric.
    """
    _check_direction(direction)
    sym, symmetric = _symmetric_parts(a)
    if not np.all(symmetric):
        raise ValueError("matrix is not symmetric within tolerance")
    w, q = _eigh(sym)
    lo, hi = (np.asarray(b, dtype=float)[..., None] for b in (lo, hi))
    chosen = np.where(w < 0.0, lo, hi) if direction == "upper" else np.where(w < 0.0, hi, lo)
    value = 0.5 * _dot(chosen, w)
    maximizer = (q * chosen[..., None, :]) @ q.swapaxes(-1, -2)
    return GValue(value=value, maximizer=0.5 * (maximizer + maximizer.swapaxes(-1, -2)))


def g_matrix(a, set_: AmbiguitySet, direction: str = "upper") -> GValue:
    """Matrix generator: half the sup (upper) or inf (lower) of tr(a @ L) over the set.

    ``g_stack`` on the one matrix, which must be set_.dim x set_.dim and symmetric.
    """
    gv = g_stack(as_symmetric(a, dim=set_.dim), set_.sigma_lo_sq, set_.sigma_hi_sq, direction)
    return GValue(value=float(gv.value), maximizer=gv.maximizer)


def contains_stack(lam, lo, hi) -> np.ndarray:
    """Membership over a stack: ``lam`` is (..., d, d), each member tested against
    its own bounds lo and hi (arrays of the stack's shape, or scalars).

    A member is inside when it is symmetric and all its eigenvalues lie in
    [lo, hi] up to MEMBERSHIP_ATOL.  Each member's answer is that of
    ``contains`` on it alone.  ValueError unless the last two axes are square.
    """
    sym, symmetric = _symmetric_parts(lam)
    w = np.linalg.eigvalsh(sym)
    lo, hi = (np.asarray(b, dtype=float)[..., None] for b in (lo, hi))
    return symmetric & np.all(w >= lo - MEMBERSHIP_ATOL, axis=-1) & np.all(
        w <= hi + MEMBERSHIP_ATOL, axis=-1)


def contains(set_: AmbiguitySet, lam) -> bool:
    """Membership test: symmetric with all eigenvalues inside the box.

    Pure predicate; shape or symmetry violations return False rather than
    raising.  Eigenvalues may overshoot the bounds by MEMBERSHIP_ATOL.
    """
    try:
        sym = as_symmetric(lam, dim=set_.dim)
    except ValueError:
        return False
    return bool(contains_stack(sym, set_.sigma_lo_sq, set_.sigma_hi_sq))
