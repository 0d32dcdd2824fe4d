"""Finite frames and their canonical operators.

A frame is a finite family of vectors spanning a d-dimensional complex
space, stored through its synthesis matrix (d x n, one column per vector).
The coefficient space is the n-dimensional complex space with its
canonical basis, so the analysis operator is the conjugate transpose of
the synthesis matrix and the frame operator is their product.

Annihilators -- maps into coefficient space whose range lies in the
kernel of the synthesis operator -- are the free parameter of every dual
construction in :mod:`dualframes.duality`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import oplin
from .errors import ContractViolation, DimensionMismatch, NotAFrame
from .oplin import adjoint, operator_norm

# A family is accepted as a frame when lambda_min(S) > FRAME_THRESHOLD_REL * lambda_max(S).
FRAME_THRESHOLD_REL = 1e-10
# Range of an annihilator must sit in ker(T) to this relative tolerance.
ANNIHILATOR_TOL = 1e-10


class FrameBounds(NamedTuple):
    """Optimal frame bounds: the spectral endpoints of the frame operator."""

    lower: float
    upper: float

    @classmethod
    def from_eigenvalues(cls, w: np.ndarray) -> "FrameBounds":
        """Bounds from the ascending spectrum of a frame operator.

        ``lower == 0.0`` signals a Bessel family that is not a frame.
        """
        upper = float(max(w[-1], 0.0))
        lower = float(w[0])
        if lower <= FRAME_THRESHOLD_REL * upper:
            lower = 0.0
        return cls(lower=lower, upper=upper)

    def require(self, name: str = "family") -> "FrameBounds":
        """These bounds, or :class:`NotAFrame` when the lower bound is 0."""
        if self.lower == 0.0:
            raise NotAFrame(f"{name} has lower frame bound 0 (rank deficient)")
        return self


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Frame:
    """A finite vector family, held as its d x n synthesis matrix.

    The synthesis matrix is immutable: a writeable array passed in is
    copied, and the stored array is read-only.  The spectral facts of the
    frame operator S = T T* are computed lazily, at most once per frame,
    and cached on the instance:

    * :attr:`eigenvalues` -- the spectrum of S (eigenvalues only), behind
      the frame bounds;
    * :attr:`spectrum` -- the full Hermitian eigendecomposition of S,
      computed only when a root or an inverse of S is first needed;
    * :attr:`kernel` -- an orthonormal basis of ker T.

    Operators derived from them (S^{1/2}, S^{-1/2}, S^{-1} T) are rebuilt
    on each request rather than kept, and S itself is never kept.  A
    frame whose S overflows raises ValueError for every spectral fact.

    A frame built over a structured system (:func:`dualframes.gabor.gabor_frame`)
    holds the system instead of the matrix and builds the matrix, once,
    when :attr:`synthesis` is first read.  ``dim`` and ``count`` never
    build it, and the frame operator, mixed operator, approximation rate
    and eigenvalues of two systems that share their structure are read
    from the system's residue-class blocks (see :func:`mixed_operator`).
    """

    def __init__(self, synthesis):
        syn = oplin.as_operator(synthesis)
        # Copy anything that may share memory with a writeable caller array:
        # the caller's own array unless it is read-only and owns its memory,
        # and any view (such as the base-class view of an ndarray subclass).
        if syn.base is not None or (syn is synthesis and syn.flags.writeable):
            syn = syn.copy()
        self.__dict__.update(synthesis=_frozen(syn), _shape=syn.shape, _system=None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Frame is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Frame is immutable: cannot delete {name!r}")

    @classmethod
    def _adopt(cls, syn: np.ndarray) -> "Frame":
        """Frame over a freshly built array no caller holds: frozen, not copied."""
        return cls(_frozen(syn) if syn.base is None else syn)

    @classmethod
    def _of_system(cls, system) -> "Frame":
        """Frame over a structured system: its ``shape``, ``synthesis()`` and
        ``class_blocks(other)`` stand in for the matrix until it is read."""
        frame = cls.__new__(cls)
        frame.__dict__.update(_shape=system.shape, _system=system)
        return frame

    @classmethod
    def from_vectors(cls, vectors: Sequence) -> "Frame":
        """Build a frame from a sequence of length-d vectors."""
        cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        return cls._adopt(np.column_stack(cols))

    @cached_property
    def synthesis(self) -> np.ndarray:
        """The d x n synthesis matrix (read-only); a system frame builds it here."""
        return _frozen(self._system.synthesis())

    @property
    def dim(self) -> int:
        return self._shape[0]

    @property
    def count(self) -> int:
        return self._shape[1]

    def vector(self, k: int) -> np.ndarray:
        return self.synthesis[:, k].copy()

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the frame operator (read-only)."""
        if "spectrum" in self.__dict__:
            return self.spectrum.eigenvalues
        groups = _class_blocks(self, self)
        if groups is None:
            return _frozen(np.linalg.eigvalsh(frame_operator(self)))
        return _frozen(np.sort(np.concatenate([np.linalg.eigvalsh(g).ravel() for _, g in groups])))

    @cached_property
    def spectrum(self) -> oplin.Spectrum:
        """Hermitian eigendecomposition of the frame operator (read-only)."""
        w, v = np.linalg.eigh(frame_operator(self))
        spec = oplin.Spectrum(_frozen(w), _frozen(v))
        self.__dict__.setdefault("eigenvalues", spec.eigenvalues)
        return spec

    @cached_property
    def kernel(self) -> np.ndarray:
        """Orthonormal basis (n x (n - rank)) of ker T (read-only), where the rank
        counts the singular values of T above ``s_max * eps * max(d, n)``."""
        return _frozen(oplin.svd_split(self.synthesis)[1])

    def __repr__(self):
        return f"Frame(dim={self.dim}, count={self.count})"


def _check_same_shape(phi: Frame, psi: Frame) -> None:
    if phi.dim != psi.dim or phi.count != psi.count:
        raise DimensionMismatch(
            f"frames have shapes {phi.dim}x{phi.count} and {psi.dim}x{psi.count}"
        )


def analysis(phi: Frame, f) -> np.ndarray:
    """Coefficients ( <f, phi_k> )_k of a vector against the frame."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.shape[0] != phi.dim:
        raise DimensionMismatch(f"vector length {f.shape[0]}, frame dimension {phi.dim}")
    return adjoint(phi.synthesis) @ f


def synthesis(phi: Frame, c) -> np.ndarray:
    """Linear combination sum_k c_k phi_k of the frame vectors."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    if c.shape[0] != phi.count:
        raise DimensionMismatch(f"coefficient length {c.shape[0]}, frame count {phi.count}")
    return phi.synthesis @ c


def _class_blocks(phi: Frame, psi: Frame):
    """The residue-class blocks of mixed_operator(phi, psi), or None.

    They exist when both frames hold structured systems that share their
    structure (for Gabor systems: one grid and one lattice).  Each group is
    ``(index, blocks)``: row r of ``index`` lists the samples of one class
    and ``blocks[r]`` is the operator restricted to them; the operator is
    zero between classes.  ValueError when a block is not finite.
    """
    if phi._system is None or psi._system is None:
        return None
    groups = phi._system.class_blocks(psi._system)
    for _, blocks in groups or ():
        oplin._require_finite(blocks)
    return groups


def frame_operator(phi: Frame) -> np.ndarray:
    """S = T T*, Hermitian PSD by construction (d x d); ValueError when it overflows."""
    return oplin.as_operator(mixed_operator(phi, phi))


def frame_bounds(phi: Frame) -> FrameBounds:
    """Optimal bounds; ``lower == 0.0`` signals a Bessel family that is not a frame."""
    return FrameBounds.from_eigenvalues(phi.eigenvalues)


def is_frame(phi: Frame) -> bool:
    return frame_bounds(phi).lower > 0.0


def require_frame(phi: Frame, name: str = "family") -> FrameBounds:
    return frame_bounds(phi).require(name)


def is_riesz(phi: Frame) -> bool:
    """True iff the family is a Riesz basis: square synthesis with trivial kernel."""
    return phi.count == phi.dim and is_frame(phi)


def frame_operator_sqrt(phi: Frame) -> np.ndarray:
    """S^{1/2}, from the frame's cached spectrum."""
    return oplin.spectrum_sqrt(phi.spectrum)


def frame_operator_inv_sqrt(phi: Frame) -> np.ndarray:
    """S^{-1/2}, from the frame's cached spectrum."""
    return oplin.spectrum_inv_sqrt(phi.spectrum)


def canonical_dual(phi: Frame) -> Frame:
    """The frame ( S^{-1} phi_k )_k, giving exact reconstruction."""
    spec = phi.spectrum  # first, so that its eigenvalues also serve the frame check
    require_frame(phi, "frame")
    v = spec.eigenvectors
    return Frame._adopt((v / spec.eigenvalues) @ (adjoint(v) @ phi.synthesis))


def mixed_operator(phi: Frame, psi: Frame) -> np.ndarray:
    """The d x d operator synthesis(phi) o analysis(psi).

    Two systems with residue-class blocks (see :func:`_class_blocks`) get
    it by scattering the blocks, without either synthesis matrix.
    """
    _check_same_shape(phi, psi)
    groups = _class_blocks(phi, psi)
    if groups is None:
        return phi.synthesis @ adjoint(psi.synthesis)
    out = np.zeros((phi.dim, phi.dim), dtype=complex)
    for index, blocks in groups:
        out[index[:, :, None], index[:, None, :]] = blocks
    return out


def approximation_rate(phi: Frame, psi: Frame) -> float:
    """Distance ||Id - mixed_operator(phi, psi)||; below 1 means approximately dual.

    With residue-class blocks it is the largest ||I - block||.
    """
    groups = _class_blocks(phi, psi)
    if groups is None:
        return operator_norm(oplin.identity(phi.dim) - mixed_operator(phi, psi))
    return max(
        float(np.max(np.linalg.norm(np.eye(blocks.shape[-1]) - blocks, 2, axis=(-2, -1))))
        for _, blocks in groups
    )


def bessel_bound_difference(phi: Frame, psi: Frame) -> float:
    """Optimal Bessel bound of the difference family (phi_k - psi_k)_k."""
    _check_same_shape(phi, psi)
    return operator_norm(phi.synthesis - psi.synthesis) ** 2


def kernel_basis(phi: Frame) -> np.ndarray:
    """Orthonormal basis (n x (n - rank)) of the kernel of the synthesis map (cached)."""
    return phi.kernel


@dataclass(frozen=True)
class Annihilator:
    """An n x d map whose range lies in the kernel of the synthesis operator.

    These maps add pure kernel content to dual constructions: they change
    the dual family without changing the mixed operator.
    """

    map: np.ndarray
    base: Frame = field(repr=False)

    def __post_init__(self):
        m = oplin.as_operator(self.map)
        object.__setattr__(self, "map", m)
        if m.shape != (self.base.count, self.base.dim):
            raise DimensionMismatch(
                f"annihilator must be {self.base.count}x{self.base.dim}, got {m.shape}"
            )
        residual = operator_norm(self.base.synthesis @ m)
        t_norm = np.sqrt(frame_bounds(self.base).upper)  # ||T|| = sqrt(lambda_max(S))
        allowed = ANNIHILATOR_TOL * t_norm * max(operator_norm(m), 1e-300)
        if residual > allowed:
            raise ContractViolation(
                f"range must lie in ker(synthesis): ||T theta|| <= {allowed:.3e}",
                measured=residual,
            )

    @classmethod
    def zero(cls, phi: Frame) -> "Annihilator":
        return cls(map=np.zeros((phi.count, phi.dim), dtype=complex), base=phi)

    @property
    def norm(self) -> float:
        return operator_norm(self.map)


def random_annihilator(phi: Frame, seed: int, scale: float) -> Annihilator:
    """Seeded annihilator with operator norm ``scale``.

    Coefficients are complex Gaussian draws against an orthonormal kernel
    basis, then rescaled.  A Riesz basis has trivial kernel, so the zero
    map is returned; ``scale == 0`` also yields the zero map.
    """
    kernel = kernel_basis(phi)
    if kernel.shape[1] == 0 or scale == 0.0:
        return Annihilator.zero(phi)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((kernel.shape[1], phi.dim)) + 1j * rng.standard_normal(
        (kernel.shape[1], phi.dim)
    )
    raw = kernel @ coeffs
    return Annihilator(map=raw * (scale / operator_norm(raw)), base=phi)
