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
one block value, a :class:`~dualframes.oplin.LatticeOperator`.  An annihilator theta is
held the same way, by the factor of its adjoint theta*.
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
      ``s * s`` of the singular values s of T, which the frame test reads;
    * the canonical dual U diag(1/s) V* = (S^{-1} phi_k)_k, read through
      :func:`canonical_dual`.

    A frame takes its thin SVD at its first spectral read, whichever it is, and
    every fact comes from it: one set of singular values, so two frames of one
    matrix read the same bounds in whatever order their facts are read.

    S itself is never formed.  The frame test reads s_min / s_max, which no
    scaling of T changes; a bound that does not fit a normal float raises
    ValueError when it, or the eigenvalues, are read.  If S overflows, the
    eigenvalues, the bounds and the canonical dual raise ValueError; the other
    facts are read as usual.

    A frame also keeps the record of each pair (phi, psi) it was read in as the first
    frame (see :class:`_Pair`), which computes each of its facts at most once, when first
    asked for.  The record lives while both frames do and goes with either: it holds
    psi's factor and a weak reference to phi, never a frame.

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
        """Ascending eigenvalues of S (read-only): the squares of the singular values of T, padded
        with zeros to d.  ValueError, as :func:`frame_bounds`, when S overflows or when a bound of a
        nonzero T is 0 or subnormal: lambda_max, and lambda_min of a frame (see :func:`is_frame`)."""
        w, (s_min, s_max) = self._squares, self.spectrum._sigma
        for bound, root in ((w[0], s_min if _is_frame(s_min, s_max) else 0.0), (w[-1], s_max)):
            if root > 0.0 and not np.finfo(float).tiny <= bound:
                raise ValueError(f"frame bound {root:.3e}^2 is not a normal float")
        return w

    @cached_property
    def _squares(self) -> np.ndarray:
        """:attr:`eigenvalues`, unchecked but for overflow: ValueError when S overflows."""
        s = self.spectrum.s
        with np.errstate(over="ignore"):
            w = np.concatenate([np.zeros(self.dim - s.size), (s * s)[::-1]])
        return _frozen(oplin._require_finite(w))

    @cached_property
    def spectrum(self) -> oplin.Spectrum:
        """The thin SVD of T (read-only), one batched SVD of each class factor."""
        return self._system.svd()

    @cached_property
    def _flat_view(self) -> "Frame":  # see _flat
        return Frame._over(ClassFactor.of(self.synthesis))

    @cached_property
    def _pairs(self) -> "weakref.WeakKeyDictionary[Frame, _Pair]":
        return weakref.WeakKeyDictionary()

    @cached_property
    def _canonical_dual(self) -> "Frame":
        """S^{-1} T = U diag(1/s) V*; ValueError when S overflows or where S^{-1} T stops fitting a
        float: once 1/s_min overflows (s_min below about 5.6e-309; its bounds fail below 1.5e-154)."""
        require_frame(self, "frame")
        self._squares  # ValueError when S overflows: the dual S^{-1} T is refused with it
        return Frame._over(self.spectrum.dual())

    def __repr__(self):
        return f"Frame(dim={self.dim}, count={self.count})"


def _vector(v, length: int, what: str) -> np.ndarray:
    """``v`` as a complex vector of ``length`` entries, finite (ValueError otherwise)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != length:
        raise DimensionMismatch(f"{what} length {v.shape[0]}, expected {length}")
    return oplin._require_finite(v, what)


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
    theta* does; a d x d operand as blocks when it is a LatticeOperator on the same grid and
    lattice, or an array exactly zero between the classes (one class: the array itself)."""
    if isinstance(x, Frame):
        if x._system.shape != system.shape:
            raise DimensionMismatch(f"frames have shapes {system.shape[0]}x{system.shape[1]} "
                                    f"and {x.dim}x{x.count}")
        return x if x._system.shares_classes(system) else None
    if isinstance(x, Annihilator):
        return x if x.star.shares_classes(system) else None
    if isinstance(x, LatticeOperator):
        return x if (x.grid, x.lattice) == (system.grid, system.lattice) else None
    (index, _), *others = system.groups
    if index.shape[0] == 1 and not others:
        return system._operator([x[None]])
    value = _gathered(system, x)
    if sum(np.count_nonzero(b) for _, b in value.groups) == np.count_nonzero(x):
        return value


def _gathered(system: ClassFactor, x: np.ndarray) -> LatticeOperator:
    """The blocks of the finite d x d array ``x`` on the classes of ``system``, the rest dropped."""
    return system._operator(x[i[:, :, None], i[:, None, :]] for i, _ in system.groups)


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
    if isinstance(x, Annihilator):  # theta* of a system's classes: the one class of its matrix
        if x.star.grid is None:
            return x
        return Annihilator._over(ClassFactor.of(_frozen(x.star.synthesis())), _flat(x.base), x.norm)
    return LatticeOperator.of(np.asarray(x))


def _same_frame(a: Frame, b: Frame) -> bool:
    return a is b or np.array_equal(_flat(a).synthesis, _flat(b).synthesis)


def frame_operator(phi: Frame) -> np.ndarray:
    """S = T T*, Hermitian PSD by construction (d x d); ValueError when it overflows.
    A new array on each call, from the blocks of the pair (phi, phi), which the frame keeps."""
    return np.array(_pair(phi, phi).mixed)


def frame_bounds(phi: Frame) -> FrameBounds:
    """Optimal bounds, the ends of :attr:`Frame.eigenvalues` (ValueError as they raise);
    ``lower == 0.0`` signals a Bessel family that is not a frame."""
    w = phi.eigenvalues
    return FrameBounds(lower=float(w[0]) if _is_frame(*phi.spectrum._sigma) else 0.0, upper=float(w[-1]))


def is_frame(phi: Frame) -> bool:
    """The frame test (see :mod:`dualframes.tolerances`) on s_min / s_max; reads no bound,
    so it holds at any scale."""
    return _is_frame(*phi.spectrum._sigma)


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
    held by its class factor (see :meth:`dualframes.oplin.Spectrum.dual`)."""
    return phi._canonical_dual


class _Pair:
    """The facts of a frame pair (phi, psi) on the classes of :func:`_aligned`, each computed
    at most once: ``mixed``, the block value made with the record, which keeps the rate
    ``mixed.gap()``, its singular values and the guarded corresponding operator; and, when
    first read, ``whitened`` W = S^{-1/2} mixed, ``theta`` and ``theta_norm``.  theta* is psi's
    factor projected, class by class, off range(T*), which removes the part A* S^{-1} phi_k of
    psi = _with_mixed(phi, mixed, theta); no rate is checked.  The record holds psi's factor
    and a weak reference to the frame that keeps it (phi or its one-class view): no cycle.
    """

    def __init__(self, phi: Frame, psi: Frame):
        self._phi, self._psi = weakref.ref(phi), psi._system
        self.mixed = phi._system.blocks(psi._system)

    @cached_property
    def whitened(self) -> LatticeOperator:
        return self._phi().spectrum.inv_root @ self.mixed

    @cached_property
    def theta(self) -> ClassFactor:
        return self._phi().spectrum.kernel_part(self._psi)

    @cached_property
    def theta_norm(self) -> float:
        return self.theta.norm()


def _pair(phi: Frame, psi: Frame) -> _Pair:
    """The record of the pair (phi, psi) on the classes of :func:`_aligned`, kept on (the
    view of) phi while psi lives."""
    pair = phi._pairs.get(psi)
    if pair is None:
        view, psi = _aligned(phi, psi)
        pair = None if view is phi else view._pairs.get(psi)
        if pair is None:
            pair = view._pairs[psi] = _Pair(view, psi)
    return pair


def mixed_operator(phi: Frame, psi: Frame) -> np.ndarray:
    """The d x d operator synthesis(phi) o analysis(psi), read-only, read from the pair's
    record: its blocks scattered once.  Two factors with the same classes (see
    :func:`_aligned`) give it without either synthesis matrix.
    """
    return _pair(phi, psi).mixed.matrix


def approximation_rate(phi: Frame, psi: Frame) -> float:
    """Distance ||Id - mixed_operator(phi, psi)||; below 1 means approximately dual."""
    return _pair(phi, psi).mixed.gap()


def bessel_bound_difference(phi: Frame, psi: Frame) -> float:
    """Optimal Bessel bound of the difference family (phi_k - psi_k)_k: the squared norm of
    the difference of the two factors (see :func:`_aligned`)."""
    phi, psi = _aligned(phi, psi)
    return _squared((psi._system - phi._system).norm())


@dataclass(frozen=True, eq=False, init=False)
class Annihilator:
    """An n x d map theta whose range lies in the kernel of the synthesis operator.

    These maps add pure kernel content to dual constructions: they change
    the dual family without changing the mixed operator.

    An annihilator is held by its adjoint theta* (d x n) as a factor, ``star``, which is
    what the constructions read: the one class of ``map*`` for a map given, and T's classes
    for an annihilator recovered from a pair (:func:`dualframes.duality.recover_parameters`).
    ``map`` is built from it on each read.  The constructor measures ``norm`` = ||map||;
    :func:`random_annihilator` and a recovered annihilator carry the norm they know.  Each
    checks ||T theta|| <= ANNIHILATOR_TOL ||T|| ||theta|| on the blocks T theta, on T's
    classes when theta* has them, else on the one class of T: the check passes on their
    Frobenius norm when that shows it, and a failure reports the operator norm.
    """

    base: Frame = field(repr=False)
    star: ClassFactor = field(init=False, repr=False)
    norm: float = field(init=False)  # ||theta||

    def __init__(self, map, base: Frame):
        m = oplin.as_operator(map)
        if m.shape != (base.count, base.dim):
            raise DimensionMismatch(f"annihilator must be {base.count}x{base.dim}, got {m.shape}")
        self._hold(ClassFactor.of(_frozen(adjoint(m))), base, operator_norm(m))

    @classmethod
    def _over(cls, star: ClassFactor, base: Frame, norm: float) -> "Annihilator":
        """The annihilator whose theta* is the factor ``star`` and whose norm is known."""
        value = cls.__new__(cls)
        value._hold(star, base, norm)
        return value

    def _hold(self, star: ClassFactor, base: Frame, norm: float) -> None:
        """Hold theta* = ``star`` once ||T theta|| <= ANNIHILATOR_TOL ||T|| ||theta||, else
        ContractViolation with the measured ||T theta||."""
        for name, v in (("star", star), ("base", base), ("norm", norm)):
            object.__setattr__(self, name, v)
        allowed = ANNIHILATOR_TOL * base.spectrum._sigma[1] * max(norm, 1e-300)  # ||T||
        residual = (base if star.shares_classes(base._system) else _flat(base))._system.blocks(star)
        if not residual.at_most(allowed):
            raise ContractViolation(
                f"range must lie in ker(synthesis): ||T theta|| <= {allowed:.3e}", measured=residual.norm())

    @property
    def map(self) -> np.ndarray:
        """theta (n x d), read-only, built from theta* on each read: only ``star`` is kept."""
        return _frozen(adjoint(self.star.synthesis()))

    @classmethod
    def zero(cls, phi: Frame) -> "Annihilator":
        """The zero map, as the zero factor of phi's classes."""
        return cls._over(phi._system._with(np.zeros_like(f) for _, f in phi._system.groups), phi, 0.0)


def random_annihilator(phi: Frame, seed: int, scale: float) -> Annihilator:
    """Seeded annihilator with operator norm ``scale``.

    An n x d complex Gaussian draw D, whose adjoint is projected onto ker T as one class,
    then rescaled: a draw of no class structure, so a system projects it through its
    one-class view.  A Riesz basis has trivial kernel, so the zero map is returned;
    ``scale == 0`` also yields the zero map.  ValueError for a negative or
    non-finite scale.
    """
    if not 0.0 <= scale < np.inf:
        raise ValueError(f"annihilator scale must be finite and >= 0, got {scale!r}")
    if phi.spectrum.rank == phi.count or scale == 0.0:
        return Annihilator.zero(phi)
    rng = np.random.default_rng(seed)
    shape = (phi.count, phi.dim)
    # conj(D), drawn as such, so that D* is its transpose, a view; projected into a new array
    conj_draw = rng.standard_normal(shape) - 1j * rng.standard_normal(shape)
    (star,) = _flat(phi).spectrum.off_range([conj_draw.T[None]])
    raw_norm = operator_norm(star[0].T)  # on the n x d view, as theta's
    star *= scale / raw_norm
    # Rounding each entry to eps relative moves the norm by at most eps sqrt(d) of it, and
    # an entry that underflows by up to 2^-1075 absolute: the norm is carried unless those
    # can add up to NORM_CARRY_TOL of it (a subnormal scale), or it overflows, and measured then.
    norm = raw_norm * (scale / raw_norm)
    if not (math.sqrt(star.size) * 2.0**-1074 <= NORM_CARRY_TOL * norm and norm < math.inf):
        norm = operator_norm(star[0].T)
    return Annihilator._over(ClassFactor.of(_frozen(star)[0]), phi, norm)
