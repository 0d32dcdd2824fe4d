"""Finite frames and their canonical operators.

A frame is a finite family of vectors spanning a d-dimensional complex
space, stored through its synthesis matrix (d x n, one column per vector).
The coefficient space is the n-dimensional complex space with its
canonical basis, so the analysis operator is the conjugate transpose of
the synthesis matrix and the frame operator is their product.

Annihilators -- maps into coefficient space whose range lies in the
kernel of the synthesis operator -- are the free parameter of every dual
construction in :mod:`dualframes.duality`.

A frame may hold a Gabor system instead of its matrix (see :class:`Frame`), whose
block operators are all of one type, :class:`~dualframes.gabor.LatticeOperator`,
and whose eigenvalues, bounds and canonical dual come from one ``eigh`` of its blocks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import oplin
from .errors import ContractViolation, DimensionMismatch, NotAFrame
from .oplin import _frozen, adjoint, operator_norm

# A family is accepted as a frame when lambda_min(S) > FRAME_THRESHOLD_REL * lambda_max(S),
# judged on the singular values of T: s_min > sqrt(FRAME_THRESHOLD_REL) * s_max.
FRAME_THRESHOLD_REL = 1e-10
# Range of an annihilator must sit in ker(T) to this relative tolerance.
ANNIHILATOR_TOL = 1e-10


class FrameBounds(NamedTuple):
    """Optimal frame bounds: the spectral endpoints of the frame operator."""

    lower: float
    upper: float

    @classmethod
    def from_eigenvalues(cls, w: np.ndarray, sigma: tuple) -> "FrameBounds":
        """Bounds from the ascending spectrum ``w`` of a frame operator.

        The frame test reads ``sigma`` = (s_min, s_max) of T, so no scaling
        of T changes it.  ``lower == 0.0`` signals a Bessel family that is not
        a frame; a bound that is 0, subnormal or infinite for a nonzero T
        raises ValueError.
        """
        frame = _is_frame(*sigma)
        bounds = cls(lower=float(w[0]) if frame else 0.0, upper=float(max(w[-1], 0.0)))
        for bound, root in zip(bounds, (sigma[0] if frame else 0.0, sigma[1])):
            if root > 0.0 and not np.finfo(float).tiny <= bound < np.inf:
                raise ValueError(f"frame bound {root:.3e}^2 is not a normal float")
        return bounds


def _is_frame(s_min: float, s_max: float) -> bool:
    return s_min > np.sqrt(FRAME_THRESHOLD_REL) * s_max


class Frame:
    """A finite vector family, held as its d x n synthesis matrix.

    The synthesis matrix is immutable: a writeable array passed in is
    copied, and the stored array is read-only.  The spectral facts are
    computed lazily, at most once per frame, and cached on the instance:

    * :attr:`spectrum` -- one thin SVD T = U diag(s) V* (:class:`~dualframes.oplin.Spectrum`);
      S^{1/2}, S^{-1/2} (two d x d arrays once read), the rank, the analysis
      range and the projection onto ker T are read from it;
    * :attr:`eigenvalues` -- the spectrum of S, behind the frame bounds:
      the spectrum's own array, or a system frame's block eigenvalues;
    * the canonical dual U diag(1/s) V* = (S^{-1} phi_k)_k, read through
      :func:`canonical_dual`.

    S itself is never formed.  The frame test reads s_min / s_max, which no
    scaling of T changes; a bound that does not fit a normal float raises
    ValueError when read.  If S overflows, its eigenvalues, the bounds and
    the canonical dual raise ValueError; the other facts are read as usual.

    A frame also keeps the facts of each pair (phi, psi) it was read in as the
    first frame, each computed at most once, when first asked for: the mixed
    operator synthesis(phi) o analysis(psi) (d x d, or a system pair's block
    value), its rate, its singular values, its inverse (the corresponding
    operator, d x d) and the annihilator part theta (n x d), psi's analysis
    operator projected onto ker T.  A dense pair read through every fact
    holds two d x d arrays and one n x d array.  The facts live while both
    frames do and go with either; they hold no reference to either frame.

    A frame built over a structured system (:func:`dualframes.gabor.gabor_frame`)
    holds the system instead of the matrix and builds the matrix, once,
    when :attr:`synthesis` is first read.  ``dim`` and ``count`` never
    build it; the frame operator, mixed operator and approximation rate of
    systems sharing their structure are read from the residue-class blocks,
    which a system keeps for its own S (see :func:`mixed_operator`), and its
    eigenvalues, bounds and canonical dual S^{-1} T from one ``eigh`` of them.
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
        """Frame over a structured system: its ``shape``, ``synthesis()``, ``frame_blocks``,
        ``class_blocks(other)``, ``eigenvalues`` and ``solve`` stand in for the matrix."""
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
        """Ascending eigenvalues of S (read-only): a system's blocks', else the spectrum's array."""
        return self.spectrum.eigenvalues if self._system is None else self._system.eigenvalues

    @cached_property
    def spectrum(self) -> oplin.Spectrum:
        """The thin SVD of T (read-only)."""
        return oplin.Spectrum.of(self.synthesis)

    @cached_property
    def _sigma(self) -> tuple:
        """(s_min, s_max) of T: the spectrum's (s_min = 0 when n < d), or a system's block roots."""
        if self._system is not None:
            return tuple(float(np.sqrt(max(x, 0.0))) for x in self.eigenvalues[[0, -1]])
        s = self.spectrum.s
        return (float(s[-1]) if s.size == self.dim else 0.0), float(s[0])

    @cached_property
    def _pairs(self) -> "weakref.WeakKeyDictionary[Frame, _Pair]":
        return weakref.WeakKeyDictionary()

    @cached_property
    def _canonical_dual(self) -> "Frame":
        require_frame(self, "frame")
        self.eigenvalues  # ValueError when S overflows: the dual S^{-1} T is refused with it
        if self._system is not None:
            return Frame._adopt(self._system.solve(self.synthesis))
        spectrum = self.spectrum
        return Frame._adopt((spectrum.u / spectrum.s) @ spectrum.vh)

    def __repr__(self):
        return f"Frame(dim={self.dim}, count={self.count})"


def _check_same_shape(phi: Frame, psi: Frame) -> None:
    if phi.dim != psi.dim or phi.count != psi.count:
        raise DimensionMismatch(
            f"frames have shapes {phi.dim}x{phi.count} and {psi.dim}x{psi.count}"
        )


def _vector(v, length: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != length:
        raise DimensionMismatch(f"{what} length {v.shape[0]}, expected {length}")
    return v


def analysis(phi: Frame, f) -> np.ndarray:
    """Coefficients ( <f, phi_k> )_k of a vector against the frame."""
    return adjoint(phi.synthesis) @ _vector(f, phi.dim, "vector")


def synthesis(phi: Frame, c) -> np.ndarray:
    """Linear combination sum_k c_k phi_k of the frame vectors."""
    return phi.synthesis @ _vector(c, phi.count, "coefficient")


def _class_blocks(phi: Frame, psi: Frame):
    """mixed_operator(phi, psi) as the systems' block value (a ``LatticeOperator``:
    ``np.asarray``, ``gap()`` = ``||Id - X||``; ValueError when a block is not
    finite), or None unless both frames hold structured systems that
    share their structure (for Gabor systems: one grid and one lattice)."""
    if phi._system is None or psi._system is None:
        return None
    if phi._system is psi._system:
        return phi._system.frame_blocks
    return phi._system.class_blocks(psi._system)


def _product(phi: Frame, psi: Frame):
    """synthesis(phi) o analysis(psi) as formed: the systems' block value, else dense."""
    blocks = _class_blocks(phi, psi)
    return phi.synthesis @ adjoint(psi.synthesis) if blocks is None else blocks


def frame_operator(phi: Frame) -> np.ndarray:
    """S = T T*, Hermitian PSD by construction (d x d); ValueError when it overflows.
    Formed on each call: a frame keeps its spectrum, not S."""
    return oplin.as_operator(_product(phi, phi))


def frame_bounds(phi: Frame) -> FrameBounds:
    """Optimal bounds; ``lower == 0.0`` signals a Bessel family that is not a frame.
    ValueError when a bound of a nonzero family is not a normal float."""
    return FrameBounds.from_eigenvalues(phi.eigenvalues, phi._sigma)


def is_frame(phi: Frame) -> bool:
    """Whether s_min > sqrt(FRAME_THRESHOLD_REL) * s_max; reads no bound, so it holds at any scale."""
    return _is_frame(*phi._sigma)


def require_frame(phi: Frame, name: str = "family") -> None:
    """:class:`NotAFrame` unless ``phi`` is a frame (see :func:`is_frame`)."""
    if not is_frame(phi):
        raise NotAFrame(f"{name} has lower frame bound 0 (rank deficient)")


def is_riesz(phi: Frame) -> bool:
    """True iff the family is a Riesz basis: square synthesis with trivial kernel."""
    return phi.count == phi.dim and is_frame(phi)


def frame_operator_sqrt(phi: Frame) -> np.ndarray:
    """S^{1/2} = U diag(s) U* (read-only), kept on the frame's spectrum."""
    return phi.spectrum.sqrt


def frame_operator_inv_sqrt(phi: Frame) -> np.ndarray:
    """S^{-1/2} = U diag(1/s) U* (read-only), kept on the frame's spectrum."""
    return phi.spectrum.inv_sqrt


def canonical_dual(phi: Frame) -> Frame:
    """The frame ( S^{-1} phi_k )_k, giving exact reconstruction (kept): U diag(1/s) V*,
    or for a system frame S^{-1} T from its blocks' ``eigh``, class by class."""
    return phi._canonical_dual


class _Pair:
    """The facts of a frame pair (phi, psi), each computed at most once.

    ``mixed`` is the systems' block value (see :func:`_class_blocks`) or a
    read-only dense array; the other facts are read from it on first use.
    ``theta``, the annihilator part, and ``theta_norm`` are kept by
    :func:`dualframes.duality._theta_part`.  The record holds no frame.
    """

    def __init__(self, mixed):
        self.mixed = _frozen(mixed) if isinstance(mixed, np.ndarray) else mixed
        self.theta = self.theta_norm = None

    @property
    def dense(self) -> np.ndarray:
        return np.asarray(self.mixed)

    @cached_property
    def rate(self) -> float:
        return oplin.identity_gap(self.mixed) if isinstance(self.mixed, np.ndarray) else self.mixed.gap()

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Descending singular values of the dense mixed operator: its norm is the
        first, the norm of its inverse the reciprocal of the last."""
        return _frozen(np.linalg.svd(oplin._square(self.dense), compute_uv=False))

    @cached_property
    def corresponding(self) -> np.ndarray:
        """The inverse of the mixed operator (read-only), under the guard of
        :func:`dualframes.oplin.inverse`, whose Singular it raises on every read."""
        oplin._require_conditioned(self.singular_values)
        return _frozen(np.linalg.inv(self.dense))


def _pair(phi: Frame, psi: Frame) -> _Pair:
    """The record of the pair (phi, psi), kept on phi while psi lives."""
    _check_same_shape(phi, psi)
    pair = phi._pairs.get(psi)
    if pair is None:
        pair = phi._pairs[psi] = _Pair(_product(phi, psi))
    return pair


def mixed_operator(phi: Frame, psi: Frame) -> np.ndarray:
    """The d x d operator synthesis(phi) o analysis(psi), read from the pair's record.

    Dense, it is the record's read-only array.  Two systems with
    residue-class blocks (see :func:`_class_blocks`) get it by scattering
    the blocks, without either synthesis matrix.
    """
    return _pair(phi, psi).dense


def approximation_rate(phi: Frame, psi: Frame) -> float:
    """Distance ||Id - mixed_operator(phi, psi)||; below 1 means approximately dual."""
    return _pair(phi, psi).rate


def bessel_bound_difference(phi: Frame, psi: Frame) -> float:
    """Optimal Bessel bound of the difference family (phi_k - psi_k)_k."""
    _check_same_shape(phi, psi)
    return operator_norm(phi.synthesis - psi.synthesis) ** 2


@dataclass(frozen=True)
class Annihilator:
    """An n x d map whose range lies in the kernel of the synthesis operator.

    These maps add pure kernel content to dual constructions: they change
    the dual family without changing the mixed operator.
    """

    map: np.ndarray
    base: Frame = field(repr=False)
    norm: float = field(init=False, repr=False, compare=False)  # ||map||, computed once

    def __post_init__(self):
        m = oplin.as_operator(self.map)
        object.__setattr__(self, "map", m)
        if m.shape != (self.base.count, self.base.dim):
            raise DimensionMismatch(
                f"annihilator must be {self.base.count}x{self.base.dim}, got {m.shape}"
            )
        if "norm" not in self.__dict__:  # set by _kept
            object.__setattr__(self, "norm", operator_norm(m))
        residual = operator_norm(self.base.synthesis @ m)
        t_norm = self.base._sigma[1]  # ||T||
        allowed = ANNIHILATOR_TOL * t_norm * max(self.norm, 1e-300)
        if residual > allowed:
            raise ContractViolation(
                f"range must lie in ker(synthesis): ||T theta|| <= {allowed:.3e}",
                measured=residual,
            )

    @classmethod
    def _kept(cls, m: np.ndarray, base: Frame, norm: float) -> "Annihilator":
        """The annihilator over a map whose norm is known: a pair's kept theta."""
        value = cls.__new__(cls)
        object.__setattr__(value, "norm", norm)
        value.__init__(m, base)
        return value

    @classmethod
    def zero(cls, phi: Frame) -> "Annihilator":
        return cls(map=np.zeros((phi.count, phi.dim), dtype=complex), base=phi)


def random_annihilator(phi: Frame, seed: int, scale: float) -> Annihilator:
    """Seeded annihilator with operator norm ``scale``.

    An n x d complex Gaussian draw, projected onto ker T, then rescaled.
    A Riesz basis has trivial kernel, so the zero map is returned;
    ``scale == 0`` also yields the zero map.  ValueError for a negative or
    non-finite scale.
    """
    if not 0.0 <= scale < np.inf:
        raise ValueError(f"annihilator scale must be finite and >= 0, got {scale!r}")
    if phi.spectrum.rank == phi.count or scale == 0.0:
        return Annihilator.zero(phi)
    rng = np.random.default_rng(seed)
    shape = (phi.count, phi.dim)
    raw = phi.spectrum.kernel_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Annihilator(map=raw * (scale / operator_norm(raw)), base=phi)
