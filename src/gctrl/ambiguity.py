"""Volatility ambiguity set and its worst-case expectation generators.

The ambiguity set is the box of symmetric matrices whose eigenvalues lie
between two variance bounds.  The generators take a symmetric matrix A and
return half the supremum (upper) or infimum (lower) of tr(A @ L) over the
box, together with the matrix attaining it.  These are the nonlinear
second-order coefficients of every solver in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if int(self.dim) < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
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


def as_symmetric(a, dim: int | None = None) -> np.ndarray:
    """Validate ``a`` as a symmetric square matrix and return (a + a.T) / 2.

    Scalars and 1-element arrays are promoted to 1x1 matrices.  Asymmetry
    beyond SYMMETRY_RTOL (relative to the matrix scale) is an error.
    """
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {arr.shape[0]}x{arr.shape[0]}")
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.max(np.abs(arr - arr.T)) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (arr + arr.T)


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


def g_matrix(a, set_: AmbiguitySet, direction: str = "upper") -> GValue:
    """Matrix generator: half the sup (upper) or inf (lower) of tr(a @ L).

    The extremum over the box is attained at a matrix sharing the eigenbasis
    of ``a``; each eigen-direction picks the high variance where the matching
    eigenvalue of ``a`` is positive and the low variance where it is negative
    (mirrored for the lower direction).  Zero eigenvalues take the high
    variance (upper) or the low variance (lower) so the attaining matrix is
    deterministic; the value is unaffected.
    """
    _check_direction(direction)
    sym = as_symmetric(a, dim=set_.dim)
    w, q = _eigh(sym)
    lo, hi = set_.sigma_lo_sq, set_.sigma_hi_sq
    if direction == "upper":
        chosen = np.where(w > 0.0, hi, np.where(w < 0.0, lo, hi))
    else:
        chosen = np.where(w > 0.0, lo, np.where(w < 0.0, hi, lo))
    value = 0.5 * float(np.dot(chosen, w))
    maximizer = (q * chosen) @ q.T
    maximizer = 0.5 * (maximizer + maximizer.T)
    return GValue(value=value, maximizer=maximizer)


def contains(set_: AmbiguitySet, lam) -> bool:
    """Membership test: symmetric with all eigenvalues inside the box.

    Pure predicate; shape or symmetry violations return False rather than
    raising.  Eigenvalues may overshoot the bounds by MEMBERSHIP_ATOL.
    """
    try:
        sym = as_symmetric(lam, dim=set_.dim)
    except ValueError:
        return False
    w = np.linalg.eigvalsh(sym)
    return bool(
        np.all(w >= set_.sigma_lo_sq - MEMBERSHIP_ATOL)
        and np.all(w <= set_.sigma_hi_sq + MEMBERSHIP_ATOL)
    )
