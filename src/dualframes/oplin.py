"""Complex-matrix operator backbone.

Operators between finite-dimensional complex spaces are plain 2-d
``numpy`` arrays of ``complex128``.  This module supplies the pieces the
frame machinery leans on everywhere: adjoints, operator (spectral) norms,
guarded inverses/solves, and the one representation of a synthesis matrix:
its class factor (:class:`ClassFactor`), of which a matrix is the one-class
case.  One batched thin SVD of the factor gives every spectral fact
(:class:`Spectrum`); the mixed operator of two factors with the same classes
is block diagonal over them (:class:`LatticeOperator`).

A pass/fail check ``||a|| <= bound`` can be settled on the Frobenius norm
(:func:`_norm_at_most`, :meth:`LatticeOperator.at_most`), which bounds the operator norm from above and costs
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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, LatticeMismatch, Singular
from .tolerances import COND_CUTOFF, FRAME_THRESHOLD_REL, STRICT_FACTOR

# ||a - Id|| below this radius keeps the condition number of a below COND_CUTOFF.
_GUARD_RADIUS = (COND_CUTOFF - 1.0) / (COND_CUTOFF + 1.0)
_EPS = float(np.finfo(float).eps)


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
    if not np.isfinite(a).all():
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


def _squared(norm: float) -> float:
    """``norm ** 2``; ValueError when it overflows, as for an overflowing S."""
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
    parts = a.view(float) if a.flags.c_contiguous else np.stack((a.real, a.imag))
    peak = float(np.abs(parts).max())
    if peak == 0.0:
        return 0.0 <= bound
    with np.errstate(under="ignore"):
        x = (parts / peak).ravel()
    slack = 1.0 + 8.0 * a.size * _EPS  # a float: an overflow reads inf, unwarned
    return peak * math.sqrt(float(x @ x)) * slack <= bound


def _norm_at_most(m, bound: float) -> bool:
    """Whether ||m|| <= bound: certified by the Frobenius norm when it can be,
    else decided by :func:`operator_norm`; ValueError when an entry is not finite."""
    a = as_operator(m)
    return _frobenius_shows(a, bound) or operator_norm(a) <= bound


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _descending(stacks, size: int) -> np.ndarray:
    """The values of every array of ``stacks`` in one array, descending, zero-padded to ``size``:
    one stack of one class is LAPACK's own, already descending, and is not sorted again."""
    stacks = list(stacks)
    if len(stacks) == 1 and stacks[0].shape[0] == 1:
        values = stacks[0][0]
    else:
        values = np.sort(np.concatenate([s.ravel() for s in stacks]))[::-1]
    return _frozen(np.concatenate([values, np.zeros(size - values.size)]) if values.size < size else values)


def _largest_norm(stacks) -> float:
    """The largest 2-norm of the matrices of ``stacks``: a values-only SVD of each stack."""
    return max(float(np.linalg.svd(b, compute_uv=False)[..., 0].max()) for b in stacks)


def _raveled(stacks) -> np.ndarray:
    """The entries of every array of ``stacks`` in one array (the one array itself when alone)."""
    stacks = list(stacks)
    return stacks[0] if len(stacks) == 1 else np.concatenate([s.ravel() for s in stacks])


def _range_part(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """V V* z for V* = ``v``, as conj(V*^T conj(V* z)): no conjugate copy of ``v``."""
    c = v @ z
    np.conj(c, out=c)
    r = np.swapaxes(v, -1, -2) @ c
    return np.conj(r, out=r)


def _modulation(classes: np.ndarray, m: int) -> np.ndarray:
    """omega^(m r) for omega = exp(2 pi i / M), one row per class r, one column per m."""
    return np.exp(2j * np.pi * (np.outer(classes, np.arange(m)) % m) / m)


@dataclass(frozen=True, eq=False)
class LatticeOperator:
    """A d x d operator zero between the classes of a :class:`ClassFactor`, as read-only
    ``(index, blocks)`` groups, one per class size (``blocks[c]`` acts on the rows ``index[c]``),
    on the ``grid`` and ``lattice`` of the factors it comes from (None for a matrix).
    Only factors, spectra and :meth:`of` build it, each block checked finite (ValueError
    otherwise); ``np.asarray`` gives the dense matrix, scattered anew, and :attr:`matrix` the
    one kept, read-only: the block itself when one class holds every row, as for a matrix
    pair.  Every read and ``@`` (by a value or a factor with the same classes) go block by block.

    It is not a :class:`ClassFactor`: at ab = 1 a Gabor system's factor is square, so a
    block's shape cannot tell a synthesis matrix from an operator on the same space."""

    grid: object = field(init=False)
    lattice: object = field(init=False)
    groups: tuple = field(init=False, repr=False)

    @classmethod
    def _of(cls, grid, lattice, groups, finite: bool = False) -> "LatticeOperator":
        value = cls()  # each index is read-only where it is made; a block unless known ``finite``
        groups = tuple([(i, _frozen(b if finite else _require_finite(b))) for i, b in groups])
        value.__dict__.update(grid=grid, lattice=lattice, groups=groups)
        return value

    @classmethod
    def of(cls, a: np.ndarray) -> "LatticeOperator":
        """The finite d x d matrix ``a`` as one class, its block a view of ``a``: no copy."""
        return cls._of(None, None, ((_frozen(np.arange(a.shape[0])[None]), a[None]),), finite=True)

    @property
    def dim(self) -> int:
        return sum(index.size for index, _ in self.groups)

    def __array__(self, dtype=None, copy=None):
        (index, blocks), *others = self.groups
        if index.shape[0] == 1 and not others:  # one class holds every row, in order: its block is the matrix
            return blocks[0].astype(dtype or complex, copy=bool(copy))
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for index, blocks in self.groups:
            out[index[:, :, None], index[:, None, :]] = blocks
        return out.astype(dtype or complex, copy=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only, kept: what a pair fact or a root returns as an array."""
        return _frozen(np.asarray(self))

    def _map(self, blocks) -> "LatticeOperator":
        return LatticeOperator._of(self.grid, self.lattice, zip([i for i, _ in self.groups], blocks))

    def __matmul__(self, other):
        with np.errstate(over="ignore", invalid="ignore"):  # _of and ClassFactor._with raise an overflow
            products = [x @ y for (_, x), (_, y) in zip(self.groups, other.groups)]  # the same classes
        return other._with(products) if isinstance(other, ClassFactor) else self._map(products)

    def norm(self) -> float:
        """||X||: the largest block norm."""
        return _largest_norm(b for _, b in self.groups)

    def gap(self) -> float:
        """||Id - X||: the largest ||I - block||."""
        return _largest_norm(np.eye(b.shape[-1]) - b for _, b in self.groups)

    def distance(self, other: "LatticeOperator") -> float:
        """||Y - X|| for ``other`` = Y: the largest block norm of the difference;
        LatticeMismatch unless ``other`` lies on the same grid and lattice."""
        if (other.grid, other.lattice) != (self.grid, self.lattice):
            raise LatticeMismatch("operators on different grids or lattices have different classes")
        pairs = zip(self.groups, other.groups)  # the same classes, grouped alike
        return _largest_norm(y - x for (_, x), (_, y) in pairs)

    def at_most(self, bound: float) -> bool:
        """Whether ||X|| <= bound: certified by the Frobenius norm of all blocks when it can be
        (see :func:`_frobenius_shows`), else decided by :meth:`norm`."""
        return _frobenius_shows(_raveled(b for _, b in self.groups), bound) or self.norm() <= bound

    def apply(self, v: np.ndarray, op=np.matmul) -> np.ndarray:
        """The vector whose samples in each class are ``op(block, v restricted to the class)``."""
        out = np.empty_like(v)
        for index, blocks in self.groups:
            out[index] = op(blocks, v[index][..., None])[..., 0]
        return out

    def singular_values(self) -> np.ndarray:
        """The d singular values (read-only), descending: the union of the blocks'."""
        stacks = (np.linalg.svd(blocks, compute_uv=False) for _, blocks in self.groups)
        return _descending(stacks, self.dim)

    def inverse(self) -> "LatticeOperator":
        """The inverse, block by block; unguarded (see :func:`_require_invertible`)."""
        return self._map(np.linalg.inv(b) for _, b in self.groups)

    def solve(self, rhs: "ClassFactor") -> "ClassFactor":
        """X^{-1} rhs, class by class, for a factor with these classes; unguarded."""
        return rhs._with(np.linalg.solve(b, f) for (_, b), (_, f) in zip(self.groups, rhs.groups))


@dataclass(frozen=True, eq=False)
class ClassFactor:
    """A d x n synthesis matrix T held by its class factor.

    With M ``modulations``, row x of T lies in the class r = x mod M, and column j M + m
    carries the modulation m: T[index_r[k], j M + m] = omega^(m r) factor_r[k, j] / sqrt(M),
    omega = exp(2 pi i / M).  ``groups`` holds one read-only ``(index, factor)`` per class
    size, ``index[c]`` the rows of a class, ascending; a class that holds no row is not stored.  As the
    rows omega^(m r) / sqrt(M) are orthonormal, the thin SVD of T is that of each factor_r
    (:class:`Spectrum`), and two factors with the same classes have the mixed operator
    factor_r other_r* on each class; sums and products by a block value go class by class.
    A matrix is the one-class case, M = 1 (:meth:`of`).
    ``grid`` and ``lattice`` name the structure the classes come from: a Gabor system's
    (:mod:`dualframes.gabor`), None for a matrix.
    """

    shape: tuple
    modulations: int
    groups: tuple
    grid: object = None
    lattice: object = None

    @classmethod
    def of(cls, t: np.ndarray) -> "ClassFactor":
        """The matrix ``t`` as one class with the factor ``t`` itself, a view: no copy."""
        return cls(t.shape, 1, ((_frozen(np.arange(t.shape[0])[None]), t[None]),))

    @property
    def classes(self) -> int:
        return sum(index.shape[0] for index, _ in self.groups)

    def shares_classes(self, other: "ClassFactor") -> bool:
        """Whether ``other`` has these classes: the same structure, M and shape."""
        return (self.grid == other.grid and self.lattice == other.lattice
                and self.modulations == other.modulations and self.shape == other.shape)

    def synthesis(self) -> np.ndarray:
        """The d x n matrix T, columns j M + m, built from the factor; with M = 1, the factor itself."""
        m = self.modulations
        if m == 1:  # one class, every row in order, no modulation: no copy
            return self.groups[0][1][0]
        syn = np.empty((self.shape[0], self.shape[1] // m, m), dtype=complex)
        for index, factor in self.groups:
            phases = (_modulation(index[:, 0], m) / math.sqrt(m))[:, None, :]
            for k in range(index.shape[1]):
                syn[index[:, k]] = factor[:, k, :, None] * phases
        return syn.reshape(self.shape)

    def _with(self, stacks) -> "ClassFactor":
        """These classes holding ``stacks``, read-only; ValueError when an entry overflowed."""
        value = object.__new__(ClassFactor)  # replace(self, groups=...), without its field walk
        value.__dict__.update(self.__dict__, groups=tuple(
            [(i, _frozen(_require_finite(f))) for (i, _), f in zip(self.groups, stacks)]))
        return value

    @np.errstate(over="ignore", invalid="ignore")  # _with raises an overflow
    def __sub__(self, other: "ClassFactor") -> "ClassFactor":
        return self._with(x - y for (_, x), (_, y) in zip(self.groups, other.groups))

    def norm(self) -> float:
        """||T||: the largest singular value of the factors."""
        return _largest_norm(np.swapaxes(f, -1, -2) for _, f in self.groups)

    def blocks(self, other: "ClassFactor") -> LatticeOperator:
        """T other*, the blocks factor_r other_r*, for ``other`` with the same classes;
        ValueError when a block overflows."""
        pairs = zip(self.groups, other.groups)  # the same classes, grouped alike
        with np.errstate(over="ignore", invalid="ignore"):  # LatticeOperator._of raises an overflow
            blocks = [(index, left @ adjoint(right)) for (index, left), (_, right) in pairs]
        return LatticeOperator._of(self.grid, self.lattice, blocks)

    def singular_values(self) -> np.ndarray:
        """T's min(d, n) singular values (read-only), descending: a values-only SVD of each factor."""
        stacks = [np.linalg.svd(f.swapaxes(-1, -2), compute_uv=False) for _, f in self.groups]
        return _descending(stacks, min(self.shape))

    def svd(self) -> "Spectrum":
        """The thin SVD of T: one batched thin SVD of each factor."""
        classes = []
        for index, f in self.groups:
            # of the transpose, W diag(s) X* (U = X*^T, V* = W^T): a quarter faster on short wide factors
            w, s, x = np.linalg.svd(f.swapaxes(-1, -2), full_matrices=False)
            classes.append((index, _frozen(x.swapaxes(-1, -2)), _frozen(s), _frozen(w.swapaxes(-1, -2))))
        return Spectrum(self, tuple(classes), _descending((s for _, _, s, _ in classes), min(self.shape)))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The thin SVD T = U diag(s) V* of a synthesis matrix held by its :class:`ClassFactor`,
    with every spectral fact of T and of S = T T* read from it, once, on first read, read-only.

    ``classes`` holds one ``(index, u, s, vh)`` per class size, the batched thin SVD
    factor_r = U_r diag(s_r) V_r*; ``s`` holds T's min(d, n) singular values, descending:
    the s_r, zero-padded as a dense SVD pads.  After a unitary DFT over the modulation index,
    ker T is ker V_r* on each class and all of C^K on a class that holds no row.  S is never
    formed, so the facts carry the accuracy of kappa(T), not of kappa(S) = kappa(T)^2, and
    scale exactly with T.  :meth:`of` takes the SVD of a matrix: the one-class case.
    """

    factor: ClassFactor = field(repr=False)
    classes: tuple = field(repr=False)
    s: np.ndarray

    @classmethod
    def of(cls, t) -> "Spectrum":
        """The thin SVD of the matrix ``t``."""
        return ClassFactor.of(np.asarray(t, dtype=complex)).svd()

    @property
    def shape(self) -> tuple[int, int]:
        return self.factor.shape

    @cached_property
    def _cutoff(self) -> float:
        return self.s[0] * _EPS * max(self.shape)

    @cached_property
    def rank(self) -> int:
        """The count of singular values above ``s_max * eps * max(d, n)``
        (the rule of ``np.linalg.matrix_rank``)."""
        return int(np.sum(self.s > self._cutoff))

    @cached_property
    def root(self) -> LatticeOperator:
        """S^{1/2} = U diag(s) U*, class by class."""
        return self.power(1)

    @cached_property
    def inv_root(self) -> LatticeOperator:
        """S^{-1/2} = U diag(1/s) U*, class by class; read once T passes the frame test."""
        return self.power(-1)

    @property
    def sqrt(self) -> np.ndarray:
        """:attr:`root` as a d x d array, read-only."""
        return self.root.matrix

    @property
    def inv_sqrt(self) -> np.ndarray:
        """:attr:`inv_root` as a d x d array, read-only; :class:`Singular` unless T passes the frame test."""
        smallest = self.s[-1] if self.s.size == self.shape[0] else 0.0
        if not _is_frame(smallest, self.s[0]):
            raise Singular(f"smallest singular value {smallest:.3e} too close to zero")
        return self.inv_root.matrix

    def power(self, p: int) -> LatticeOperator:
        """S^(p/2) = U diag(s^p) U*, class by class: finite where it is read (S, and for p < 0 S^{-1})."""
        blocks = [(index, (u * s[..., None, :] ** p) @ adjoint(u)) for index, u, s, _ in self.classes]
        return LatticeOperator._of(self.factor.grid, self.factor.lattice, blocks, finite=True)

    def dual(self) -> ClassFactor:
        """The canonical dual S^{-1} T = U diag(1/s) V*: the factor U_r diag(1/s_r) V_r*."""
        groups = ((index, _frozen((u / s[..., None, :]) @ vh)) for index, u, s, vh in self.classes)
        return replace(self.factor, groups=tuple(groups))

    @cached_property
    def range_rows(self) -> tuple:
        """V_r* of each group, its rows below the rank cutoff zeroed: range(T*) class by class."""
        return tuple(vh if (s > self._cutoff).all() else _frozen(vh * (s > self._cutoff)[..., None])
                     for _, _, s, vh in self.classes)

    @cached_property
    def _spanning(self) -> tuple:
        """Per group, the classes whose range(V_r) is all of C^K: their kernel part is exactly zero."""
        return tuple((s > self._cutoff).sum(axis=-1) == vh.shape[-1] for _, _, s, vh in self.classes)

    def off_range(self, rows) -> tuple:
        """Each group's (C, k, K) stack of row vectors of ``rows`` projected off range(V_r) on
        its class, z - (z V_r) V_r*, twice, so that the result stays orthogonal to it."""
        out = []
        for z, v, spanning in zip(rows, self.range_rows, self._spanning):
            z = z - (z @ adjoint(v)) @ v
            z -= (z @ adjoint(v)) @ v
            z[spanning] = 0.0
            out.append(z)
        return tuple(out)

    def kernel_part(self, x):
        """``x`` projected onto ker T, twice, so that the result stays orthogonal to range(T*):
        a factor with these classes, as X* (:meth:`off_range`), or the columns of an n x m
        array, x - V V* x, for a matrix's spectrum; zero when ker T is."""
        if isinstance(x, ClassFactor):
            return x._with(self.off_range(f for _, f in x.groups))
        if self.rank == self.shape[1]:
            return np.zeros_like(x)
        (v,), = self.range_rows  # one class of one row group: V*, and x's columns need no DFT
        z = x - _range_part(v, x if x.dtype == complex else x.astype(complex))
        z -= _range_part(v, z)
        return z


def _square(m) -> np.ndarray:
    a = as_operator(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    return a


def _require_conditioned(s: np.ndarray) -> None:
    """Singular unless smin > smax / COND_CUTOFF, given all singular values ``s``, descending."""
    smax, smin = float(s[0]), float(s[-1])
    if smin <= smax / COND_CUTOFF:
        if smax == 0.0:
            raise Singular("matrix is identically zero")
        raise Singular(f"condition number {smax / max(smin, 1e-300):.3e} exceeds cutoff")


def _require_invertible(x: LatticeOperator) -> LatticeOperator:
    """``x`` once its condition number is below COND_CUTOFF: certified near the identity, else
    read from its singular values."""
    if not _frobenius_shows(_raveled(np.eye(b.shape[-1]) - b for _, b in x.groups), _GUARD_RADIUS):
        _require_conditioned(x.singular_values())
    return x


def _invertible(m) -> np.ndarray:
    """``m`` as a square matrix once :func:`_require_invertible` passes."""
    a = _square(m)
    _require_invertible(LatticeOperator.of(a))
    return a


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix, guarded by a condition-number cutoff."""
    return np.linalg.inv(_invertible(m))


def solve(m, rhs) -> np.ndarray:
    """Solve ``m @ x = rhs`` with the same invertibility guard as inverse()."""
    return np.linalg.solve(_invertible(m), np.asarray(rhs, dtype=complex))
