"""Dense complex-matrix operator backbone.

Operators between finite-dimensional complex spaces are plain 2-d
``numpy`` arrays of ``complex128``.  This module supplies the pieces the
frame machinery leans on everywhere: adjoints, operator (spectral) norms,
one thin SVD of a synthesis matrix with every spectral fact read from it
(:class:`Spectrum`), and guarded inverses/solves.

Sizes stay at desk scale (a few hundred), so everything is dense and
direct; no iterative methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, Singular

# Condition-number cutoff for invertibility: smin > smax / COND_CUTOFF.
COND_CUTOFF = 1e12
# Strict "< 1" margins; boundary cases (rate exactly 1) must be rejected.
STRICT_FACTOR = 1.0 - 1e-12


def _strictly_below(value: float, bound: float) -> bool:
    return value < bound * STRICT_FACTOR


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
    return np.conj(np.transpose(m))


def operator_norm(m) -> float:
    """Largest singular value of ``m``; zero iff ``m`` is the zero matrix."""
    a = as_operator(m)
    return float(np.linalg.norm(a, 2))


def identity_gap(m) -> float:
    """||Id - M|| of a square matrix M; for a mixed operator, the approximation rate."""
    a = _square(m)
    return operator_norm(identity(a.shape[0]) - a)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Spectrum:
    """One thin SVD T = U diag(s) V* of a d x n matrix, with every spectral
    fact of T and of S = T T* read from it.

    ``u`` is d x k, ``s`` holds the k singular values (descending) and ``vh``
    is k x n, k = min(d, n).  S is never formed, so the facts carry the
    accuracy of kappa(T), not of kappa(S) = kappa(T)^2, and scale exactly
    with T.  The other facts are built once, on first read, and read-only.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @classmethod
    def of(cls, t: np.ndarray) -> "Spectrum":
        """The thin SVD of ``t``."""
        u, s, vh = np.linalg.svd(t, full_matrices=False)
        return cls(_frozen(u), _frozen(s), _frozen(vh))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of S: ``s**2``, padded with zeros to d; ValueError when S overflows."""
        with np.errstate(over="ignore"):
            w = np.concatenate([np.zeros(self.u.shape[0] - self.s.size), self.s[::-1] ** 2])
        return _frozen(_require_finite(w))

    @cached_property
    def rank(self) -> int:
        """The count of singular values above ``s_max * eps * max(d, n)``
        (the rule of ``np.linalg.matrix_rank``)."""
        cutoff = self.s[0] * np.finfo(float).eps * max(self.u.shape[0], self.vh.shape[1])
        return int(np.sum(self.s > cutoff))

    @cached_property
    def sqrt(self) -> np.ndarray:
        """S^{1/2} = U diag(s) U*."""
        return _frozen((self.u * self.s) @ adjoint(self.u))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """S^{-1/2} = U diag(1/s) U*; :class:`Singular` unless lambda_min(S) > 1e-12 lambda_max(S)."""
        smallest = self.s[-1] if self.s.size == self.u.shape[0] else 0.0
        if smallest <= 1e-6 * self.s[0]:
            raise Singular(f"smallest singular value {smallest:.3e} too close to zero")
        return _frozen((self.u / self.s) @ adjoint(self.u))

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
    a = _square(m)
    _require_conditioned(np.linalg.svd(a, compute_uv=False))
    return a


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix, guarded by a condition-number cutoff."""
    return np.linalg.inv(_invertible(m))


def solve(m, rhs) -> np.ndarray:
    """Solve ``m @ x = rhs`` with the same invertibility guard as inverse()."""
    return np.linalg.solve(_invertible(m), np.asarray(rhs, dtype=complex))
