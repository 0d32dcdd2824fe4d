"""Dense complex-matrix operator backbone.

Operators between finite-dimensional complex spaces are plain 2-d
``numpy`` arrays of ``complex128``.  This module supplies the pieces the
frame machinery leans on everywhere: adjoints, operator (spectral) norms,
Hermitian eigendecompositions, PSD square roots and inverse square roots,
orthonormal bases of a range and a kernel, and guarded inverses/solves.

Sizes stay at desk scale (a few hundred), so everything is dense and
direct; no iterative methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPSD, Singular

# Hermiticity drift in frame operators is roundoff only.
HERMITICITY_TOL = 1e-12
# Eigenvalues above -EIG_CLAMP_REL * ||M|| are clamped to 0 in PSD roots.
EIG_CLAMP_REL = 1e-10
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
    """Hermitian eigendecomposition: ascending eigenvalues, unitary columns.
    Its roots ``sqrt`` and ``inv_sqrt`` are built once, on first read, and read-only."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ adjoint(v)

    def _apply(self, values: np.ndarray) -> np.ndarray:
        r = (self.eigenvectors * values) @ adjoint(self.eigenvectors)
        return _frozen((r + adjoint(r)) / 2.0)  # re-Hermitize against roundoff

    @cached_property
    def sqrt(self) -> np.ndarray:
        """PSD square root; eigenvalues in [-EIG_CLAMP_REL * ||M||, 0) are treated as
        roundoff and clamped to 0, anything more negative raises :class:`NotPSD`."""
        w = self.eigenvalues
        scale = max(abs(w[0]), abs(w[-1]))
        if w[0] < -EIG_CLAMP_REL * scale:
            raise NotPSD(f"eigenvalue {w[0]:.3e} below clamping threshold")
        return self._apply(np.sqrt(np.clip(w, 0.0, None)))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """Inverse PSD square root; :class:`Singular` unless positive definite."""
        w = self.eigenvalues
        if w[0] <= 1e-12 * max(w[-1], 0.0):
            raise Singular(f"smallest eigenvalue {w[0]:.3e} too close to zero")
        return self._apply(1.0 / np.sqrt(w))


def _square(m) -> np.ndarray:
    a = as_operator(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    return a


def herm_eig(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (checked to tolerance)."""
    a = _square(m)
    scale = operator_norm(a)
    drift = operator_norm(a - adjoint(a))
    if drift > HERMITICITY_TOL * max(scale, 1e-300):
        raise NotHermitian(f"relative Hermiticity defect {drift / max(scale, 1e-300):.3e}")
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w.astype(float), eigenvectors=v.astype(complex))


def psd_sqrt(m) -> np.ndarray:
    """Unique PSD square root of a Hermitian PSD matrix (see Spectrum.sqrt)."""
    return herm_eig(m).sqrt


def psd_inv_sqrt(m) -> np.ndarray:
    """Inverse PSD square root of a Hermitian positive definite matrix."""
    return herm_eig(m).inv_sqrt


def svd_split(m) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as columns) of range(M*) and ker M from one full SVD.

    The rank r counts the singular values above ``s_max * eps * max(rows,
    cols)`` (the default of ``np.linalg.matrix_rank``); the first r right
    singular vectors span range(M*), the remaining ones span ker M.
    """
    a = as_operator(m)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > np.amax(s, initial=0.0) * np.finfo(float).eps * max(a.shape)))
    return vh[:rank].T.conj(), vh[rank:].T.conj()


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
