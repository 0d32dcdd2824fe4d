"""The eigh-of-S oracle: spectral facts from an ``eigh`` of the formed matrix.

The library reads every spectral fact of a frame from one thin SVD of its
synthesis matrix T.  The tests check it against these independent forms:
an ``eigh`` of a Hermitian matrix such as S = T T* (with PSD roots that clamp
roundoff negatives), and an orthonormal basis of ker T from a full SVD.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from dualframes import FrameError, Singular
from dualframes.oplin import _square, adjoint, operator_norm

# Hermiticity drift in frame operators is roundoff only.
HERMITICITY_TOL = 1e-12
# Eigenvalues above -EIG_CLAMP_REL * ||M|| are clamped to 0 in PSD roots.
EIG_CLAMP_REL = 1e-10


class NotHermitian(FrameError):
    """A matrix required to be Hermitian is not (beyond tolerance)."""


class NotPSD(FrameError):
    """A matrix required to be positive semidefinite has a significantly negative eigenvalue."""


@dataclass(frozen=True)
class EighSpectrum:
    """Hermitian eigendecomposition: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ adjoint(v)

    def _apply(self, values: np.ndarray) -> np.ndarray:
        r = (self.eigenvectors * values) @ adjoint(self.eigenvectors)
        return (r + adjoint(r)) / 2.0  # re-Hermitize against roundoff

    @cached_property
    def sqrt(self) -> np.ndarray:
        """PSD square root; eigenvalues in [-EIG_CLAMP_REL * ||M||, 0) are clamped to 0."""
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


def herm_eig(m) -> EighSpectrum:
    """Eigendecomposition of a Hermitian matrix (checked to tolerance)."""
    a = _square(m)
    scale = operator_norm(a)
    drift = operator_norm(a - adjoint(a))
    if drift > HERMITICITY_TOL * max(scale, 1e-300):
        raise NotHermitian(f"relative Hermiticity defect {drift / max(scale, 1e-300):.3e}")
    w, v = np.linalg.eigh(a)
    return EighSpectrum(eigenvalues=w.astype(float), eigenvectors=v.astype(complex))


def psd_sqrt(m) -> np.ndarray:
    """Unique PSD square root of a Hermitian PSD matrix."""
    return herm_eig(m).sqrt


def psd_inv_sqrt(m) -> np.ndarray:
    """Inverse PSD square root of a Hermitian positive definite matrix."""
    return herm_eig(m).inv_sqrt


def kernel_basis(phi) -> np.ndarray:
    """Orthonormal basis (n x (n - rank)) of ker T from one full SVD of T; the rank
    counts the singular values above ``s_max * eps * max(d, n)``."""
    t = phi.synthesis
    _, s, vh = np.linalg.svd(t, full_matrices=True)
    rank = int(np.sum(s > np.amax(s, initial=0.0) * np.finfo(float).eps * max(t.shape)))
    return adjoint(vh[rank:])
