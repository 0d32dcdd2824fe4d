"""Finite frames and their canonical operators.

A frame is a finite family of vectors spanning a d-dimensional complex
space, stored through its synthesis matrix (d x n, one column per vector).
The coefficient space is the n-dimensional complex space with its
canonical basis, so the analysis operator is the conjugate transpose of
the synthesis matrix and the frame operator is their product.

Annihilators -- maps into coefficient space whose range lies in the
kernel of the synthesis operator -- are the free parameter of every dual
construction in :mod:`dualframes.duality`.

Every frame is held by its class factor (:class:`~dualframes.oplin.ClassFactor`):
a matrix is the one-class case, a Gabor system the many-class one.  Its spectral facts
come from one batched thin SVD of the factor, and the mixed operator of every pair is
one block value, a :class:`~dualframes.oplin.LatticeOperator`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import oplin
from .errors import ContractViolation, DimensionMismatch, NotAFrame
from .oplin import ClassFactor, LatticeOperator, _frozen, _is_frame, _squared, adjoint, operator_norm
from .tolerances import ANNIHILATOR_TOL, NORM_CARRY_TOL


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


class Frame:
    """A finite vector family, held by the class factor of its d x n synthesis matrix.

    A frame built from a matrix holds the matrix, immutable (a writeable
    array passed in is copied, and the stored array is read-only), and its
    factor is the one-class view of it.  The spectral facts are computed
    lazily, at most once per frame, and cached on the instance:

    * :attr:`spectrum` -- one thin SVD T = U diag(s) V* (:class:`~dualframes.oplin.Spectrum`);
      S^{1/2}, S^{-1/2} (class by class), the rank, the analysis range and the
      projection onto ker T are read from it;
    * :attr:`eigenvalues` -- the spectrum of S, behind the frame bounds:
      ``s**2`` of the singular values s of T, which the frame test reads;
    * the canonical dual U diag(1/s) V* = (S^{-1} phi_k)_k, read through
      :func:`canonical_dual`.

    A one-class frame takes one SVD of T.  Which one is set by the first read
    that needs it: the bounds, the eigenvalues or the frame test alone take
    the singular values only (``compute_uv=False``, no U or V kept); the
    rank, ``ker T``, the roots, the canonical dual and :func:`require_frame`,
    which guards every construction that goes on to read them, take the thin
    SVD.  Once a frame holds the thin SVD, every fact not yet read comes from
    it; the singular values read before it are kept.  A frame of several
    classes (a Gabor system) takes the thin SVD at its first spectral read:
    its bounds are commonly read just before its roots.

    S itself is never formed.  The frame test reads s_min / s_max, which no
    scaling of T changes; a bound that does not fit a normal float raises
    ValueError when read.  If S overflows, its eigenvalues, the bounds and
    the canonical dual raise ValueError; the other facts are read as usual.

    A frame also keeps the facts of each pair (phi, psi) it was read in as the
    first frame (see :class:`_Pair`), each computed at most once, when first asked
    for.  The facts live while both frames do and go with either; they hold no
    reference to either frame.

    A frame over a factor (:func:`dualframes.gabor.gabor_frame`, or a construction)
    builds the matrix once, when :attr:`synthesis` is first read; its canonical dual
    is a factor of the same classes.
    """

    def __init__(self, synthesis):
        syn = oplin.as_operator(synthesis)
        # Copy anything that may share memory with a writeable caller array:
        # the caller's own array unless it is read-only and owns its memory,
        # and any view (such as the base-class view of an ndarray subclass).
        if syn.base is not None or (syn is synthesis and syn.flags.writeable):
            syn = syn.copy()
        self.__dict__.update(synthesis=_frozen(syn), _system=oplin.ClassFactor.of(syn))

    def __setattr__(self, name, value):
        raise AttributeError(f"Frame is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Frame is immutable: cannot delete {name!r}")

    @classmethod
    def _adopt(cls, syn: np.ndarray) -> "Frame":
        """Frame over a freshly built array no caller holds (frozen, not copied)."""
        return cls(_frozen(syn) if syn.base is None else syn)

    @classmethod
    def _over(cls, system: oplin.ClassFactor) -> "Frame":
        """Frame over a class factor, whose matrix is built when first read."""
        frame = cls.__new__(cls)
        frame.__dict__["_system"] = system
        return frame

    @classmethod
    def from_vectors(cls, vectors: Sequence) -> "Frame":
        """Build a frame from a sequence of length-d vectors."""
        cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        return cls._adopt(np.column_stack(cols))

    @cached_property
    def synthesis(self) -> np.ndarray:
        """The d x n synthesis matrix (read-only); a frame over a factor builds it here."""
        return _frozen(self._system.synthesis())

    @property
    def dim(self) -> int:
        return self._system.shape[0]

    @property
    def count(self) -> int:
        return self._system.shape[1]

    def vector(self, k: int) -> np.ndarray:
        return self.synthesis[:, k].copy()

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of S (read-only): the squares of the singular values
        of T, padded with zeros to d; ValueError when S overflows."""
        s = self._singular_values
        with np.errstate(over="ignore"):
            w = np.concatenate([np.zeros(self.dim - s.size), s[::-1] ** 2])
        return _frozen(oplin._require_finite(w))

    @cached_property
    def spectrum(self) -> oplin.Spectrum:
        """The thin SVD of T (read-only), one batched SVD of each class factor."""
        return self._system.svd()

    @cached_property
    def _singular_values(self) -> np.ndarray:
        """Descending singular values of T (read-only): those of the thin SVD when it is held
        or the factor has several classes, else of a values-only SVD of the one class."""
        if "spectrum" in self.__dict__ or self._system.classes > 1:
            return self.spectrum.s
        return self._system.singular_values()

    @cached_property
    def _sigma(self) -> tuple:
        """(s_min, s_max) of T: the singular values' (s_min = 0 when n < d)."""
        s = self._singular_values
        return (float(s[-1]) if s.size == self.dim else 0.0), float(s[0])

    @cached_property
    def _flat_view(self) -> "Frame":  # see _flat
        return Frame._over(ClassFactor.of(self.synthesis))

    @cached_property
    def _pairs(self) -> "weakref.WeakKeyDictionary[Frame, _Pair]":
        return weakref.WeakKeyDictionary()

    @cached_property
    def _canonical_dual(self) -> "Frame":
        require_frame(self, "frame")
        self.eigenvalues  # ValueError when S overflows: the dual S^{-1} T is refused with it
        return Frame._over(self.spectrum.dual())

    def __repr__(self):
        return f"Frame(dim={self.dim}, count={self.count})"


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


def _flat(phi: Frame) -> Frame:
    """phi's one-class view: phi itself for a matrix, else the frame over its synthesis
    matrix as one class, kept on phi."""
    return phi if phi._system.grid is None else phi._flat_view


def _on_classes(system: ClassFactor, x):
    """``x`` read on the classes of ``system``, or None when it is not on them: a frame whose
    factor shares them (DimensionMismatch unless it has their shape); an annihilator whose
    theta* does (a map given: a matrix's); a d x d operand as blocks when it is a
    LatticeOperator on the same grid and lattice, or an array exactly zero between the
    classes (one class: the array itself)."""
    if isinstance(x, Frame):
        if x._system.shape != system.shape:
            raise DimensionMismatch(f"frames have shapes {system.shape[0]}x{system.shape[1]} "
                                    f"and {x.dim}x{x.count}")
        return x if x._system.shares_classes(system) else None
    if isinstance(x, Annihilator):  # a map given is one class: its theta* is built when read
        star = x.__dict__.get("_factor")
        return x if (system.grid is None if star is None else star.shares_classes(system)) else None
    if isinstance(x, LatticeOperator):
        return x if (x.grid, x.lattice) == (system.grid, system.lattice) else None
    (index, _), *others = system.groups
    if index.shape[0] == 1 and not others:
        return LatticeOperator._of(system.grid, system.lattice, ((index, x[None]),), finite=True)
    groups = [(i, x[i[:, :, None], i[:, None, :]]) for i, _ in system.groups]
    if sum(np.count_nonzero(b) for _, b in groups) == np.count_nonzero(x):
        return LatticeOperator._of(system.grid, system.lattice, groups, finite=True)


def _aligned(phi: Frame, *operands) -> tuple:
    """``(phi, *operands)`` read on one set of classes, the one operand rule of every pair
    function: phi's own when each operand is on them (see :func:`_on_classes`), else the
    one-class views of all (:func:`_flat`; an operand is then one block).  A frame or an
    annihilator stays one, a d x d operand becomes a LatticeOperator, None stays None."""
    views = [x if x is None else _on_classes(phi._system, x) for x in operands]
    if all(v is not None for x, v in zip(operands, views) if x is not None):
        return (phi, *views)
    return (_flat(phi), *(x if x is None else _one_class(x) for x in operands))


def _one_class(x):
    if isinstance(x, Frame):
        return _flat(x)
    if isinstance(x, Annihilator):
        star = x.__dict__.get("_factor")  # a map given is one class
        return x if star is None or star.grid is None else Annihilator._kept(x.map, _flat(x.base), x.norm)
    return LatticeOperator.of(np.asarray(x))


def _same_frame(a: Frame, b: Frame) -> bool:
    return a is b or np.array_equal(_flat(a).synthesis, _flat(b).synthesis)


def frame_operator(phi: Frame) -> np.ndarray:
    """S = T T*, Hermitian PSD by construction (d x d); ValueError when it overflows.
    A new array on each call, from the blocks of the pair (phi, phi), which the frame keeps."""
    return np.array(_pair(phi, phi).mixed)


def frame_bounds(phi: Frame) -> FrameBounds:
    """Optimal bounds; ``lower == 0.0`` signals a Bessel family that is not a frame.
    ValueError when a bound of a nonzero family is not a normal float."""
    return FrameBounds.from_eigenvalues(phi.eigenvalues, phi._sigma)


def is_frame(phi: Frame) -> bool:
    """The frame test (see :mod:`dualframes.tolerances`) on s_min / s_max; reads no bound,
    so it holds at any scale."""
    return _is_frame(*phi._sigma)


def require_frame(phi: Frame, name: str = "family") -> None:
    """:class:`NotAFrame` unless ``phi`` is a frame (see :func:`is_frame`).  The frame
    takes its thin SVD here, as every construction guarded by this reads it."""
    phi.spectrum
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
    held by its class factor (see :meth:`dualframes.oplin.Spectrum.dual`)."""
    return phi._canonical_dual


class _Pair:
    """The facts of a frame pair (phi, psi), each computed at most once.

    ``mixed`` is the pair's block value (see :func:`_aligned`); the other facts
    are read from its blocks on first use.
    A constructor of approximate duals checks the ``rate`` of the pair it
    returns, so a classification of that pair reads the kept value.
    ``theta``, the annihilator part theta* as a factor, and ``theta_norm`` are kept by
    :func:`dualframes.duality._theta_part`, ``whitened``, the factor S^{-1/2} mixed,
    by :func:`dualframes.duality._whitened`.  The record holds no frame.
    """

    def __init__(self, mixed: LatticeOperator):
        self.mixed = mixed
        self.theta = self.theta_norm = self.whitened = None

    @cached_property
    def rate(self) -> float:
        return self.mixed.gap()

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Descending singular values of the mixed operator, the union of its blocks':
        its norm is the first, the norm of its inverse the reciprocal of the last."""
        return self.mixed.singular_values()

    @cached_property
    def inverse(self) -> LatticeOperator:
        """The inverse of the mixed operator, the corresponding operator, block by block, under
        the guard of :func:`dualframes.oplin.inverse`, whose Singular it raises on every read."""
        oplin._require_conditioned(self.singular_values)
        return self.mixed.inverse()


def _pair(phi: Frame, psi: Frame) -> _Pair:
    """The record of the pair (phi, psi) on the classes of :func:`_aligned`, kept on (the
    view of) phi while psi lives."""
    pair = phi._pairs.get(psi)
    if pair is None:
        view, psi = _aligned(phi, psi)
        pair = None if view is phi else view._pairs.get(psi)
        if pair is None:
            pair = view._pairs[psi] = _Pair(view._system.blocks(psi._system))
    return pair


def mixed_operator(phi: Frame, psi: Frame) -> np.ndarray:
    """The d x d operator synthesis(phi) o analysis(psi), read-only, read from the pair's
    record: its blocks scattered once.  Two factors with the same classes (see
    :func:`_aligned`) give it without either synthesis matrix.
    """
    return _pair(phi, psi).mixed.matrix


def approximation_rate(phi: Frame, psi: Frame) -> float:
    """Distance ||Id - mixed_operator(phi, psi)||; below 1 means approximately dual."""
    return _pair(phi, psi).rate


def bessel_bound_difference(phi: Frame, psi: Frame) -> float:
    """Optimal Bessel bound of the difference family (phi_k - psi_k)_k: the squared norm of
    the difference of the two factors (see :func:`_aligned`)."""
    phi, psi = _aligned(phi, psi)
    return _squared((psi._system - phi._system).norm())


@dataclass(frozen=True, eq=False)
class Annihilator:
    """An n x d map whose range lies in the kernel of the synthesis operator.

    These maps add pure kernel content to dual constructions: they change
    the dual family without changing the mixed operator.

    The constructor measures ``norm`` = ||map|| and checks
    ||T map|| <= ANNIHILATOR_TOL ||T|| ||map||; the check passes on the
    Frobenius norm of T map when that shows it, and a failure reports the
    operator norm.  :func:`random_annihilator` carries the norm it scaled to.

    The constructions read its adjoint theta* (d x n) as a factor: the one class of
    ``map*`` for a map given, and T's classes for an annihilator recovered from a pair
    (:func:`dualframes.duality.recover_parameters`), whose norm is the largest of its
    classes' and whose check runs class by class; its ``map`` is built when first read.
    """

    map: np.ndarray
    base: Frame = field(repr=False)
    norm: float = field(init=False, repr=False)  # ||map||, computed once

    def __post_init__(self):
        m = oplin.as_operator(self.map)
        object.__setattr__(self, "map", m)
        if m.shape != (self.base.count, self.base.dim):
            raise DimensionMismatch(
                f"annihilator must be {self.base.count}x{self.base.dim}, got {m.shape}"
            )
        if "norm" not in self.__dict__:  # set by _kept
            object.__setattr__(self, "norm", operator_norm(m))
        self._require_kernel(_flat(self.base).synthesis @ m)

    def _require_kernel(self, residual) -> None:
        """ContractViolation unless ``residual`` = T map, an array or blocks, is at most
        ANNIHILATOR_TOL ||T|| ||map||."""
        allowed = ANNIHILATOR_TOL * self.base._sigma[1] * max(self.norm, 1e-300)  # ||T||
        blocks = isinstance(residual, LatticeOperator)
        if not (residual.at_most(allowed) if blocks else oplin._norm_at_most(residual, allowed)):
            raise ContractViolation(
                f"range must lie in ker(synthesis): ||T theta|| <= {allowed:.3e}",
                measured=residual.norm() if blocks else operator_norm(residual),
            )

    def __getattr__(self, name):  # the map of an annihilator over a factor, built when first read
        if name != "map" or "_factor" not in self.__dict__:
            raise AttributeError(name)
        m = _frozen(adjoint(self._factor.synthesis()))
        object.__setattr__(self, "map", m)
        return m

    @property
    def _star(self) -> ClassFactor:
        """theta* (d x n) as a factor: T's classes, kept, or the one class of ``map*``, built
        on each read, as a construction reads it once."""
        return self.__dict__.get("_factor") or ClassFactor.of(_frozen(adjoint(self.map)))

    @classmethod
    def _kept(cls, m: np.ndarray, base: Frame, norm: float) -> "Annihilator":
        """The annihilator over a map whose norm is known: the scaled draw of :func:`random_annihilator`,
        or a factor's map on a one-class view (see :func:`_aligned`)."""
        value = cls.__new__(cls)
        object.__setattr__(value, "norm", norm)
        value.__init__(m, base)
        return value

    @classmethod
    def _over(cls, star: ClassFactor, base: Frame, norm: float) -> "Annihilator":
        """The annihilator whose theta* is the factor ``star``, with the classes of ``base``, and
        whose norm is known: a pair's kept theta; checked class by class."""
        value = cls.__new__(cls)
        for name, v in (("_factor", star), ("base", base), ("norm", norm)):
            object.__setattr__(value, name, v)
        value._require_kernel(base._system.blocks(star))
        return value

    @classmethod
    def zero(cls, phi: Frame) -> "Annihilator":
        """The zero map, as the zero factor of phi's classes."""
        return cls._over(phi._system._with(np.zeros_like(f) for _, f in phi._system.groups), phi, 0.0)


def random_annihilator(phi: Frame, seed: int, scale: float) -> Annihilator:
    """Seeded annihilator with operator norm ``scale``.

    An n x d complex Gaussian draw, projected onto ker T, then rescaled: a map of
    no class structure, so a system projects it through its one-class view.
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
    raw = _flat(phi).spectrum.kernel_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    raw_norm = operator_norm(raw)
    m = raw  # a new array: scaled in place
    m *= scale / raw_norm
    # Rounding each entry to eps relative moves the norm by at most eps sqrt(d) of it, and
    # an entry that underflows by up to 2^-1075 absolute: the norm is carried unless those
    # can add up to NORM_CARRY_TOL of it (a subnormal scale), or it overflows, and measured then.
    norm = raw_norm * (scale / raw_norm)
    if not (math.sqrt(m.size) * 2.0**-1074 <= NORM_CARRY_TOL * norm and norm < math.inf):
        norm = operator_norm(m)
    return Annihilator._kept(m, phi, norm)
