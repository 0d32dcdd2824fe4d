"""Dense complex-matrix operator backbone.

Operators between finite-dimensional complex spaces are plain 2-d
``numpy`` arrays of ``complex128``.  This module supplies the pieces the
frame machinery leans on everywhere: adjoints, operator (spectral) norms,
one thin SVD of a synthesis matrix with every spectral fact read from it
(:class:`Spectrum`), and guarded inverses/solves.

A pass/fail check ``||a|| <= bound`` can be settled on the Frobenius norm
(:func:`_norm_at_most`), which bounds the operator norm from above and costs
O(size) where an SVD costs O(size^1.5): it is taken on ``a`` divided by its
largest real or imaginary part, so no entry overflows or underflows into the
sum, and widened by its rounding.  When it shows the bound, the check passes;
otherwise the operator norm decides.  The invertibility guard of
:func:`inverse` and :func:`solve` is certified the same way near the
identity: ``||a - Id||_F < r = (C - 1) / (C + 1)`` puts every singular
value of ``a`` in ``(1 - r, 1 + r)`` (Weyl), so its condition number is
below the cutoff C; any other matrix is judged on its singular values.

Sizes stay at desk scale (a few hundred), so everything is dense and
direct; no iterative methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, Singular
from .tolerances import COND_CUTOFF, FRAME_THRESHOLD_REL, STRICT_FACTOR

# ||a - Id|| below this radius keeps the condition number of a below COND_CUTOFF.
_GUARD_RADIUS = (COND_CUTOFF - 1.0) / (COND_CUTOFF + 1.0)


def _strictly_below(value: float, bound: float) -> bool:
    return value < bound * STRICT_FACTOR


def _is_frame(s_min: float, s_max: float) -> bool:
    """The frame test on the extreme singular values of T:
    lambda_min(S) > FRAME_THRESHOLD_REL lambda_max(S)."""
    return s_min > math.sqrt(FRAME_THRESHOLD_REL) * s_max


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a finite 2-d complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(f"expected a non-empty 2-d matrix, got shape {a.shape}")
    return _require_finite(a)


def _require_finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself, or ValueError when an entry is not finite (overflow, NaN)."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def adjoint(m) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def operator_norm(m) -> float:
    """Largest singular value of ``m``; zero iff ``m`` is the zero matrix."""
    a = as_operator(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _squared_norm(m) -> float:
    """``operator_norm(m) ** 2``; ValueError when it overflows, as for an overflowing S."""
    norm = operator_norm(m)
    if norm * norm == math.inf:
        raise ValueError("squared operator norm overflows")
    return norm * norm


def _frobenius_shows(a: np.ndarray, bound: float) -> bool:
    """Whether the Frobenius norm of the finite matrix ``a`` shows ||a|| <= bound.

    The sum of squares is taken over the real and imaginary parts divided by
    the largest of them (each in [-1, 1]), so nothing overflows, and a term
    lost to underflow is below 1e-307 against a sum of at least 1.  The result
    is widened by 8 eps per entry, more than its own rounding and that of the
    SVD behind :func:`operator_norm`.  False says nothing about ||a||.
    """
    parts = np.stack((a.real, a.imag))
    peak = float(np.max(np.abs(parts)))
    if peak == 0.0:
        return 0.0 <= bound
    with np.errstate(under="ignore"):
        x = (parts / peak).ravel()
    slack = 1.0 + 8.0 * a.size * float(np.finfo(float).eps)  # a float: an overflow reads inf, unwarned
    return peak * math.sqrt(float(x @ x)) * slack <= bound


def _norm_at_most(m, bound: float) -> bool:
    """Whether ||m|| <= bound: certified by the Frobenius norm when it can be,
    else decided by :func:`operator_norm`; ValueError when an entry is not finite."""
    a = as_operator(m)
    return _frobenius_shows(a, bound) or operator_norm(a) <= bound


def identity_gap(m) -> float:
    """||Id - M|| of a square matrix M; for a mixed operator, the approximation rate."""
    a = _square(m)
    return operator_norm(identity(a.shape[0]) - a)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _SVDReads:
    """The facts of a thin SVD T = U diag(s) V* that read alike however it is held,
    built once, on first read, and read-only.  A subclass gives ``s`` (descending,
    min(d, n) values), ``shape`` = (d, n) and ``_root(p)`` = U diag(s^p) U*, p = 1 or -1."""

    @cached_property
    def _cutoff(self) -> float:
        return self.s[0] * np.finfo(float).eps * max(self.shape)

    @cached_property
    def rank(self) -> int:
        """The count of singular values above ``s_max * eps * max(d, n)``
        (the rule of ``np.linalg.matrix_rank``)."""
        return int(np.sum(self.s > self._cutoff))

    @cached_property
    def sqrt(self) -> np.ndarray:
        """S^{1/2} = U diag(s) U*."""
        return _frozen(self._root(1))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """S^{-1/2} = U diag(1/s) U*; :class:`Singular` unless T passes the frame test."""
        smallest = self.s[-1] if self.s.size == self.shape[0] else 0.0
        if not _is_frame(smallest, self.s[0]):
            raise Singular(f"smallest singular value {smallest:.3e} too close to zero")
        return _frozen(self._root(-1))


@dataclass(frozen=True, eq=False)
class Spectrum(_SVDReads):
    """One thin SVD T = U diag(s) V* of a d x n matrix, with every spectral
    fact of T and of S = T T* read from it.

    ``u`` is d x k, ``s`` holds the k singular values (descending) and ``vh``
    is k x n, k = min(d, n).  S is never formed, so the facts carry the
    accuracy of kappa(T), not of kappa(S) = kappa(T)^2, and scale exactly
    with T.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @classmethod
    def of(cls, t: np.ndarray) -> "Spectrum":
        """The thin SVD of ``t``."""
        u, s, vh = np.linalg.svd(t, full_matrices=False)
        return cls(_frozen(u), _frozen(s), _frozen(vh))

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0], self.vh.shape[1]

    def _root(self, p: int) -> np.ndarray:
        return (self.u * self.s if p == 1 else self.u / self.s) @ adjoint(self.u)

    def dual(self) -> np.ndarray:
        """The canonical dual's synthesis matrix S^{-1} T = U diag(1/s) V*."""
        return (self.u / self.s) @ self.vh

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis (n x rank) of range(T*), the analysis range."""
        return _frozen(adjoint(self.vh[: self.rank]))

    def kernel_part(self, x: np.ndarray) -> np.ndarray:
        """The columns of ``x`` (n x m) projected onto ker T: x - V V* x, applied
        twice so that the result stays orthogonal to range(T*); zero when ker T is."""
        v = self.vh[: self.rank]
        if v.shape[0] == v.shape[1]:
            return np.zeros_like(x)
        for _ in range(2):
            x = x - adjoint(v) @ (v @ x)
        return x


def _square(m) -> np.ndarray:
    a = as_operator(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    return a


def _require_conditioned(s: np.ndarray) -> None:
    """Singular unless smin > smax / COND_CUTOFF, given all singular values ``s``."""
    smax, smin = float(np.max(s)), float(np.min(s))
    if smin <= smax / COND_CUTOFF:
        if smax == 0.0:
            raise Singular("matrix is identically zero")
        raise Singular(f"condition number {smax / max(smin, 1e-300):.3e} exceeds cutoff")


def _invertible(m) -> np.ndarray:
    """``m`` as a square matrix once its condition number is below COND_CUTOFF:
    certified near the identity, else read from its singular values."""
    a = _square(m)
    if not _frobenius_shows(a - identity(a.shape[0]), _GUARD_RADIUS):
        _require_conditioned(np.linalg.svd(a, compute_uv=False))
    return a


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix, guarded by a condition-number cutoff."""
    return np.linalg.inv(_invertible(m))


def solve(m, rhs) -> np.ndarray:
    """Solve ``m @ x = rhs`` with the same invertibility guard as inverse()."""
    return np.linalg.solve(_invertible(m), np.asarray(rhs, dtype=complex))
