"""Gabor systems on a sampled periodic line.

The continuous line is replaced by a periodic grid of ``P`` units sampled
``s`` times per unit (``L = s * P`` points, inner product weighted by
``1/s``).  Windows are sampled functions; a time-frequency lattice is a
pair of positive rationals ``(a, b)`` (time step in units, frequency step
in cycles per unit).  Gabor systems are ordinary
:class:`~dualframes.frames.Frame` objects of dimension ``L`` through the
isometric embedding ``values / sqrt(s)``, so all duality machinery
applies verbatim.  Such a frame keeps its window and lattice and builds
its ``L x N`` synthesis matrix only when something reads ``synthesis``
(export, the canonical dual, its thin SVD, analysis/synthesis, a pairing
with a plain frame).  Its frame operator, and its mixed operator and
approximation rate against a system on the same grid and lattice, are
read from the Walnut (Zibulski-Zeevi) residue-class blocks instead, held by
one type, :class:`LatticeOperator`, which ``np.asarray`` makes dense; its
eigenvalues, bounds and ``S^{-1}`` from one batched ``eigh`` of the blocks.
:func:`scaled_gabor_operator` and :func:`mixed_lattice_operator` return one;
:func:`approx_dual_window` reads every operator as one: a dense one must pass
:func:`commutation_check` and is then gathered into the classes.

Grid commensurability is a hard precondition everywhere: rationals that
do not land on the grid raise typed errors instead of being rounded,
which is what keeps the duality identities exact at machine precision.
The frequency step must divide the sample rate (``s/b`` integer) for any
system to be built; the stronger condition ``b * P`` integer (modulations
periodic, so the adjoint-lattice shifts close up) is required only by the
operations that genuinely use it (duality sums, painless checks,
commutation with lattice generators).

Modulations use the convention  (E_b f)(x) = exp(2 pi i b x) f(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, factorial
from numbers import Integral
from typing import Sequence, Union

import numpy as np

from . import oplin
from .errors import (
    BadCoefficients,
    ContractViolation,
    DimensionMismatch,
    HypothesisViolated,
    LatticeMismatch,
    NotCommuting,
    NotDualPair,
    OffGrid,
    SupportOverflow,
)
from .frames import Frame, FrameBounds, _frozen, frame_bounds, require_frame
from .oplin import _strictly_below, operator_norm

RationalLike = Union[Fraction, int, str]

# Residual at or below this certifies an exact dual window pair.
GABOR_DUAL_TOL = 1e-10
# Window samples below this (relative to the peak) count as zero support.
SUPPORT_TOL = 1e-14


def as_fraction(value: RationalLike) -> Fraction:
    try:
        f = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise OffGrid(f"not a rational number: {value!r}") from exc
    return f


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: ``samples_per_unit`` points per unit over ``period`` units."""

    samples_per_unit: int
    period: int

    def __post_init__(self):
        if not all(isinstance(n, Integral) and n >= 1 for n in (self.samples_per_unit, self.period)):
            raise DimensionMismatch("grid parameters must be positive integers")

    @property
    def total(self) -> int:
        return self.samples_per_unit * self.period

    def points(self) -> np.ndarray:
        """Grid coordinates j / s, starting at 0."""
        return np.arange(self.total) / self.samples_per_unit

    def centered_points(self) -> np.ndarray:
        """Grid coordinates wrapped to [-period/2, period/2)."""
        half = self.period / 2
        return (self.points() + half) % self.period - half


@dataclass(frozen=True)
class SampledWindow:
    """A function on the grid, indexed periodically."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).reshape(-1)
        if v.shape[0] != self.grid.total:
            raise DimensionMismatch(
                f"expected {self.grid.total} samples, got {v.shape[0]}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("window has non-finite samples")
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        peak = float(np.max(np.abs(self.values))) or 1.0
        return float(np.max(np.abs(self.values.imag))) <= SUPPORT_TOL * peak


def sample_function(func, grid: GridSpec, centered: bool = False) -> SampledWindow:
    """Sample a callable on the grid (optionally on centered coordinates)."""
    x = grid.centered_points() if centered else grid.points()
    return SampledWindow(grid, np.asarray(func(x), dtype=complex))


@dataclass(frozen=True)
class GaborLattice:
    """Time step ``a`` (units) and frequency step ``b`` (cycles per unit)."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a = as_fraction(self.a)
        b = as_fraction(self.b)
        if a <= 0 or b <= 0:
            raise LatticeMismatch("lattice steps must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def time_step(self, grid: GridSpec) -> int:
        """Shift step in samples; a * s must be an integer."""
        step = self.a * grid.samples_per_unit
        if step.denominator != 1:
            raise LatticeMismatch(f"time step {self.a} does not land on the grid")
        return int(step)

    def shifts(self, grid: GridSpec) -> int:
        """Number of distinct time shifts; P / a must be an integer."""
        n = Fraction(grid.period) / self.a
        if n.denominator != 1:
            raise LatticeMismatch(f"period {grid.period} is not a multiple of a = {self.a}")
        return int(n)

    def modulations(self, grid: GridSpec) -> int:
        """Number of distinct modulations; s / b must be an integer.

        The same integer is the adjoint-lattice shift 1/b in samples.
        """
        n = Fraction(grid.samples_per_unit) / self.b
        if n.denominator != 1:
            raise LatticeMismatch(
                f"sample rate {grid.samples_per_unit} is not a multiple of b = {self.b}"
            )
        return int(n)

    def adjoint_shifts(self, grid: GridSpec) -> int:
        """Number of distinct adjoint-lattice shifts n/b; b * P must be an integer."""
        n = self.b * grid.period
        if n.denominator != 1:
            raise OffGrid(
                f"b * period = {n} is not an integer; modulations are not periodic "
                "and the adjoint-lattice shifts do not close up"
            )
        return int(n)


def _embed(w: SampledWindow) -> np.ndarray:
    return w.values / np.sqrt(w.grid.samples_per_unit)


def _unembed(grid: GridSpec, v: np.ndarray) -> SampledWindow:
    return SampledWindow(grid, v * np.sqrt(grid.samples_per_unit))


def bspline_value(order: int, x) -> np.ndarray:
    """Cardinal B-spline of the given order evaluated at arbitrary points.

    Closed-form piecewise polynomial; support [0, order], unit integral,
    partition of unity over integer shifts.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    x = np.asarray(x, dtype=float)
    if order == 1:
        return ((x >= 0) & (x < 1)).astype(float)
    out = np.zeros_like(x)
    for k in range(order + 1):
        t = x - k
        out += (-1) ** k * comb(order, k) * np.where(t > 0, t, 0.0) ** (order - 1)
    return out / factorial(order - 1)


def sample_bspline(order: int, grid: GridSpec) -> SampledWindow:
    """B-spline window by iterated discrete convolution (step weight 1/s).

    The base window is the indicator of [0, 1); each convolution uses the
    right-endpoint quadrature kernel so that the order-2 result matches
    the continuous hat function at grid points (peak value 1 at x = 1).
    All orders keep exact partition of unity over integer shifts and
    support inside [0, order].
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if grid.period < order:
        raise SupportOverflow(
            f"support [0, {order}] does not fit a period of {grid.period}"
        )
    s = grid.samples_per_unit
    values = np.zeros(grid.total)
    values[:s] = 1.0
    # Integer counts throughout, one final scale: every sample is the
    # correctly rounded value of an exact rational.
    kernel = np.zeros(s + 1)
    kernel[1:] = 1.0
    for _ in range(order - 1):
        values = np.convolve(values, kernel)[: grid.total]
    return SampledWindow(grid, values / float(s) ** (order - 1))


def sample_char(width: RationalLike, grid: GridSpec) -> SampledWindow:
    """Indicator window of [0, width); the width must land on the grid."""
    c = as_fraction(width)
    if c <= 0 or c > grid.period:
        raise OffGrid(f"width {c} outside (0, period]")
    edge = c * grid.samples_per_unit
    if edge.denominator != 1:
        raise OffGrid(f"width {c} does not land on the grid")
    values = np.zeros(grid.total)
    values[: int(edge)] = 1.0
    return SampledWindow(grid, values)


def _periodize(f: np.ndarray, step: int) -> np.ndarray:
    """sum_k f(x - k * step) along the last axis, whose length ``step`` divides.

    The sum has period ``step``: entry j is its value at every x = j mod step.
    """
    return f.reshape(*f.shape[:-1], -1, step).sum(axis=-2)


def partition_of_unity_residual(g: SampledWindow) -> float:
    """Largest deviation of sum_n g(x - n) from 1 over the grid."""
    pou = _periodize(g.values, g.grid.samples_per_unit)
    return float(np.max(np.abs(pou - 1.0)))


@dataclass(frozen=True, eq=False)
class LatticeOperator:
    """An operator zero between the residue classes of the Gabor systems on ``grid``
    and ``lattice`` (see :class:`_GaborSystem`), as read-only ``(index, blocks)``
    groups, one per class size (``blocks[r]`` acts on the samples ``index[r]``).
    Only systems build it, each block checked finite (ValueError otherwise);
    ``np.asarray`` gives the dense matrix."""

    grid: GridSpec = field(init=False)
    lattice: GaborLattice = field(init=False)
    groups: tuple = field(init=False, repr=False)
    # scaled_gabor_operator's value: the (read-only) spectrum of the S it scales; else None
    frame_eigenvalues: np.ndarray | None = field(init=False, repr=False, default=None)

    @classmethod
    def _of(cls, grid, lattice, groups, frame_eigenvalues=None) -> "LatticeOperator":
        value = cls()
        groups = tuple((_frozen(i), _frozen(oplin._require_finite(b))) for i, b in groups)
        value.__dict__.update(grid=grid, lattice=lattice, groups=groups, frame_eigenvalues=frame_eigenvalues)
        return value

    def __array__(self, dtype=None, copy=None):
        out = np.zeros((self.grid.total, self.grid.total), dtype=complex)
        for index, blocks in self.groups:
            out[index[:, :, None], index[:, None, :]] = blocks
        return out.astype(dtype or complex, copy=False)

    def gap(self) -> float:
        """||Id - X||: the largest ||I - block||."""
        eye = self._of(self.grid, self.lattice, ((i, np.eye(b.shape[-1])) for i, b in self.groups))
        return self.distance(eye)

    def distance(self, other: "LatticeOperator") -> float:
        """||Y - X|| for ``other`` = Y: the largest block norm of the difference;
        LatticeMismatch unless ``other`` lies on the same grid and lattice."""
        if (other.grid, other.lattice) != (self.grid, self.lattice):
            raise LatticeMismatch("operators on different grids or lattices have different classes")
        pairs = zip(self.groups, other.groups)  # the same classes, grouped alike
        return max(float(np.max(np.linalg.norm(y - x, 2, axis=(-2, -1)))) for (_, x), (_, y) in pairs)

    def apply(self, v: np.ndarray, op=np.matmul) -> np.ndarray:
        """The vector whose samples in each class are ``op(block, v restricted to the class)``."""
        out = np.empty_like(v)
        for index, blocks in self.groups:
            out[index] = op(blocks, v[index][..., None])[..., 0]
        return out


@dataclass(frozen=True, eq=False)
class _GaborSystem:
    """A Gabor system held by its window and lattice, not by its L x N matrix.

    ``modulations`` is M = s/b.  The mixed operator of two windows g and h
    on one grid and lattice couples samples x and y (integers in [0, L),
    no wrap-around) only when x = y mod M, and there it is
    S[x, y] = (1/b) sum_n g(x - n step) conj(h(y - n step)), the time
    index taken mod L: a block G_r for each residue class r mod M.  The
    classes hold floor(L/M) or ceil(L/M) samples (all b*P of them when
    b*P is an integer; some are empty when M > L).
    """

    window: SampledWindow
    lattice: GaborLattice
    step: int
    shifts: int
    modulations: int

    @classmethod
    def of(cls, g: SampledWindow, lat: GaborLattice) -> "_GaborSystem":
        return cls(g, lat, lat.time_step(g.grid), lat.shifts(g.grid), lat.modulations(g.grid))

    @property
    def shape(self) -> tuple[int, int]:
        return self.window.grid.total, self.shifts * self.modulations

    def synthesis(self) -> np.ndarray:
        """The L x N matrix: columns shift-major, modulation-minor."""
        grid, n_m = self.window.grid, self.modulations
        phases = np.exp(2j * np.pi * float(self.lattice.b) * np.outer(np.arange(n_m), grid.points()))
        syn = np.empty(self.shape, dtype=complex)
        base = _embed(self.window)
        for n in range(self.shifts):
            block = phases * np.roll(base, n * self.step)[None, :]
            syn[:, n * n_m : (n + 1) * n_m] = block.T
        return syn

    @cached_property
    def frame_blocks(self) -> LatticeOperator:
        """``class_blocks(self)``, the blocks of the frame operator, built on first read."""
        return self.class_blocks(self)

    @cached_property
    def _eigh(self) -> tuple:
        """One batched ``eigh`` of the frame-operator blocks: ``(w, v)`` per group."""
        return tuple(np.linalg.eigh(blocks) for _, blocks in self.frame_blocks.groups)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of S (read-only), those of its blocks."""
        return _frozen(np.sort(np.concatenate([w.ravel() for w, _ in self._eigh])))

    def solve(self, x: np.ndarray) -> np.ndarray:
        """S^{-1} x for an L x k array ``x``: V diag(1/w) V* on each class's rows."""
        out = np.empty(x.shape, dtype=complex)
        for (index, _), (w, v) in zip(self.frame_blocks.groups, self._eigh):
            out[index] = v @ ((np.conj(np.swapaxes(v, -1, -2)) @ x[index]) / w[..., None])
        return out

    def class_blocks(self, other) -> LatticeOperator | None:
        """The blocks G_r against the system ``other``, or None unless it lies on
        the same grid and lattice."""
        if (self.window.grid, self.lattice) != (other.window.grid, other.lattice):
            return None
        total, m = self.window.grid.total, self.modulations
        shifts = self.step * np.arange(self.shifts)
        size, longer = divmod(total, m)  # classes r < longer hold one sample more
        groups = []
        for classes, n in ((np.arange(longer), size + 1), (np.arange(longer, m), size)):
            if classes.size and n:
                index = classes[:, None] + m * np.arange(n)
                at = (index[..., None] - shifts) % total  # x - n step for every x and n
                left = _embed(self.window)[at]
                right = left if other.window is self.window else _embed(other.window)[at]
                # M/s = 1/b: the modulation sum and the two 1/sqrt(s) embeddings
                groups.append((index, (m * left) @ np.conj(np.swapaxes(right, -1, -2))))
        return LatticeOperator._of(self.window.grid, self.lattice, groups)


def gabor_frame(g: SampledWindow, lat: GaborLattice) -> Frame:
    """The system of modulate-after-shift copies of g, as a Frame.

    The frame builds its L x N synthesis matrix (columns shift-major,
    modulation-minor) only when ``synthesis`` is read; its frame operator
    and bounds, and its mixed operator and rate against a system on the
    same grid and lattice, come from residue-class blocks.  The embedding
    scales by 1/sqrt(s) so that frame-operator spectra match the weighted
    function-space inner product (e.g. the indicator of [0,1) on the unit
    lattice yields a tight frame with bounds (1, 1)).
    """
    return Frame._of_system(_GaborSystem.of(g, lat))


def walnut_weight(g: SampledWindow, a: RationalLike) -> SampledWindow:
    """Periodized shift-energy sum_n |g(x - n a)|^2 on the grid.

    The time step is checked as in :class:`GaborLattice` (the weight does
    not depend on the frequency step).
    """
    lat = GaborLattice(a, 1)
    step = lat.time_step(g.grid)
    shifts = lat.shifts(g.grid)
    total = np.tile(_periodize(np.abs(g.values) ** 2, step), shifts)
    if not np.all(np.isfinite(total)):
        raise ValueError("shift-energy weight sum_n |g(x - n a)|^2 overflows")
    return SampledWindow(g.grid, total)


def _check_support(g: SampledWindow, width_units: int, what: str) -> None:
    if width_units < 1:
        raise ValueError(f"support must be a positive integer, got {width_units}")
    edge = width_units * g.grid.samples_per_unit
    if edge > g.grid.total:
        raise SupportOverflow(f"support [0, {width_units}] exceeds the period")
    peak = float(np.max(np.abs(g.values))) or 1.0
    tail = float(np.max(np.abs(g.values[edge:]))) if edge < g.grid.total else 0.0
    if tail > SUPPORT_TOL * peak:
        raise HypothesisViolated(
            f"{what}: support must lie in [0, {width_units}]", measured=tail
        )


@dataclass(frozen=True)
class PainlessReport:
    """Diagonality report for a compactly supported, low-frequency-step system."""

    diagonal: np.ndarray
    offdiag_relative: float
    matched_formula: str  # "weight/b", "b/weight", or "neither"
    weight_over_step_error: float
    step_over_weight_error: float
    bounds: FrameBounds


def painless_check(g: SampledWindow, lat: GaborLattice, support: int) -> PainlessReport:
    """Verify the compact-support / small-b hypotheses and adjudicate the
    diagonal frame-operator formula.

    The frame operator is compared against both candidate
    diagonals G(x)/b and b/G(x); the report records which one matches.
    (The weight-over-step form G/b is the one that holds; the inverted
    form appears in print but fails numerically.)
    """
    _check_support(g, support, "painless hypothesis")
    if lat.b > Fraction(1, support):
        raise HypothesisViolated(
            f"painless hypothesis: requires b <= 1/{support}", measured=float(lat.b)
        )
    weight = walnut_weight(g, lat.a).values.real
    if weight.min() <= 1e-12 * weight.max():
        raise HypothesisViolated(
            "painless hypothesis: shift-energy weight not bounded away from 0",
            measured=float(weight.min()),
        )
    lat.adjoint_shifts(g.grid)  # diagonality needs periodic modulations
    frame = gabor_frame(g, lat)
    s = frame._system.frame_blocks
    diag = np.empty(g.grid.total)
    for index, blocks in s.groups:
        diag[index] = np.real(np.diagonal(blocks, axis1=-2, axis2=-1))
    # S is zero between classes, so ||S - diag(S)|| is the largest block's
    diagonal = ((index, blocks * np.eye(blocks.shape[-1])) for index, blocks in s.groups)
    off = s.distance(LatticeOperator._of(g.grid, lat, diagonal))
    scale = frame_bounds(frame).upper  # ||S|| = lambda_max(S), S being PSD
    b = float(lat.b)
    err_wb = float(np.max(np.abs(diag - weight / b))) / scale
    err_bw = float(np.max(np.abs(diag - b / weight))) / scale
    matched = "weight/b" if err_wb <= 1e-9 else "b/weight" if err_bw <= 1e-9 else "neither"
    return PainlessReport(
        diagonal=diag,
        offdiag_relative=off / scale,
        matched_formula=matched,
        weight_over_step_error=err_wb,
        step_over_weight_error=err_bw,
        bounds=frame_bounds(frame),
    )


def janssen_residual_table(
    g: SampledWindow, h: SampledWindow, lat: GaborLattice
) -> np.ndarray:
    """Per-adjoint-shift residuals of the lattice-sum duality criterion.

    Entry r is  max over grid points x of
    | sum_k conj(g(x - r/b - k a)) h(x - k a)  -  b delta_{r,0} |,
    where r ranges over the distinct values of r/b on the periodic line
    (there are b * P of them).
    """
    if g.grid != h.grid:
        raise DimensionMismatch("windows live on different grids")
    grid = g.grid
    step = lat.time_step(grid)
    lat.shifts(grid)  # the time shifts must close up on the period
    adj_step = lat.modulations(grid)  # 1/b in samples
    n_adj = lat.adjoint_shifts(grid)
    # row r holds conj(g(x - r/b)) h(x) at every grid point x
    index = (np.arange(grid.total) - adj_step * np.arange(n_adj)[:, None]) % grid.total
    sums = _periodize(np.conj(g.values[index]) * h.values, step)
    sums[0] -= float(lat.b)
    return np.max(np.abs(sums), axis=1)


def janssen_residual(g: SampledWindow, h: SampledWindow, lat: GaborLattice) -> float:
    """Worst-case deviation of the pair from the lattice-sum duality criterion.

    At most GABOR_DUAL_TOL certifies that the two systems are exact duals
    (and this agrees with their approximation rate dropping to the same
    tolerance).
    """
    return float(np.max(janssen_residual_table(g, h, lat)))


def _require_ck_window(g: SampledWindow, support: int, b: Fraction) -> None:
    if not g.is_real:
        raise HypothesisViolated("dual-generator hypothesis: window must be real-valued")
    pou = partition_of_unity_residual(g)
    if pou > GABOR_DUAL_TOL:
        raise HypothesisViolated(
            "dual-generator hypothesis: partition of unity fails", measured=pou
        )
    _check_support(g, support, "dual-generator hypothesis")
    if b > Fraction(1, 2 * support - 1):
        raise HypothesisViolated(
            f"dual-generator hypothesis: requires b <= 1/{2 * support - 1}",
            measured=float(b),
        )


def ck_dual1(g: SampledWindow, support: int, b: RationalLike) -> SampledWindow:
    """Explicit dual window  b g(x) + 2b sum_{n=1}^{support-1} g(x + n).

    Requires a real window with exact partition of unity, support inside
    [0, support], and b <= 1/(2*support - 1).  The result is an exact
    dual generator on the unit time lattice (a = 1).
    """
    bq = as_fraction(b)
    _require_ck_window(g, support, bq)
    return ck_dual1_unchecked(g, support, bq)


def ck_dual1_unchecked(g: SampledWindow, support: int, b: RationalLike) -> SampledWindow:
    """The :func:`ck_dual1` formula without its hypothesis check.

    For probing the formula where its hypotheses fail (e.g. b above
    1/(2*support - 1)); the result is then in general not a dual window.
    """
    bf = float(as_fraction(b))
    return _shift_combination(g, [0.0] * (support - 1) + [bf] + [2 * bf] * (support - 1))


def _shift_combination(g: SampledWindow, coeffs: Sequence[float]) -> SampledWindow:
    """sum_n a_n g(x + n) for n = -m .. m, given a_{-m} .. a_m (2m + 1 of them)."""
    s = g.grid.samples_per_unit
    mid = len(coeffs) // 2  # index of a_0
    values = np.zeros(g.grid.total, dtype=complex)
    for i, c in enumerate(coeffs):
        values += c * np.roll(g.values, -(i - mid) * s)
    return SampledWindow(g.grid, values)


def ck_dual2(
    g: SampledWindow, support: int, b: RationalLike, coeffs: Sequence[float]
) -> SampledWindow:
    """Coefficient-family dual window  sum_n a_n g(x + n),  n = -support+1 .. support-1.

    The coefficients must satisfy a_0 = b and a_n + a_{-n} = 2b; any
    violated index is reported.  Choosing a_n = 2b for n >= 1 and 0 for
    n <= -1 reproduces :func:`ck_dual1`.
    """
    bq = as_fraction(b)
    _require_ck_window(g, support, bq)
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != 2 * support - 1:
        raise BadCoefficients(
            [f"expected {2 * support - 1} coefficients, got {len(coeffs)}"]
        )
    mid = support - 1  # index of a_0
    bf = float(bq)
    violations = []
    if abs(coeffs[mid] - bf) > 1e-12:
        violations.append(f"a_0 = {coeffs[mid]!r} must equal b = {bf!r}")
    for n in range(1, support):
        total = coeffs[mid + n] + coeffs[mid - n]
        if abs(total - 2 * bf) > 1e-12:
            violations.append(f"a_{n} + a_{-n} = {total!r} must equal 2b = {2 * bf!r}")
    if violations:
        raise BadCoefficients(violations)
    return _shift_combination(g, coeffs)


def commutation_check(a_op, lat: GaborLattice, grid: GridSpec) -> float:
    """Largest commutator norm of an operator against the lattice generators.

    Entrywise (indices mod L), with E = diag(e) and T the cyclic time shift:
    (AE - EA)_jk = A_jk (e_k - e_j), (AT - TA)_jk = A_j,k+step - A_j-step,k.
    """
    a = oplin.as_operator(a_op)
    if a.shape != (grid.total, grid.total):
        raise DimensionMismatch(
            f"operator must be {grid.total}x{grid.total}, got {a.shape}"
        )
    lat.adjoint_shifts(grid)  # generators only close up with periodic modulations
    e = np.exp(2j * np.pi * float(lat.b) * grid.points())
    step = lat.time_step(grid)
    comm_e = a * (e[None, :] - e[:, None])
    comm_t = np.roll(a, -step, axis=1) - np.roll(a, step, axis=0)
    return max(operator_norm(comm_e), operator_norm(comm_t))


def scaled_gabor_operator(l_window: SampledWindow, lat: GaborLattice) -> LatticeOperator:
    """Frame operator of the given window's system, scaled by its upper bound.

    The result commutes with the lattice generators by construction, and
    its distance to the identity is 1 - lower/upper < 1, which makes it a
    ready-made operator for prescribing an approximation rate.  It is a
    :class:`LatticeOperator` that keeps the unscaled spectrum as
    ``frame_eigenvalues``; :func:`approx_dual_window` reads its blocks.
    """
    frame = gabor_frame(l_window, lat)
    upper = frame_bounds(frame).upper
    require_frame(frame, "scaling system")
    groups = ((i, b / upper) for i, b in frame._system.frame_blocks.groups)
    return LatticeOperator._of(l_window.grid, lat, groups, frame_eigenvalues=frame.eigenvalues)


def mixed_lattice_operator(g: SampledWindow, h: SampledWindow, lat: GaborLattice) -> LatticeOperator:
    """``mixed_operator(gabor_frame(g, lat), gabor_frame(h, lat))`` as a :class:`LatticeOperator`."""
    if g.grid != h.grid:
        raise DimensionMismatch("windows live on different grids")
    return _GaborSystem.of(g, lat).class_blocks(_GaborSystem.of(h, lat))


def approx_dual_window(
    g: SampledWindow, g_dual: SampledWindow, a_op, lat: GaborLattice
) -> SampledWindow:
    """Approximately dual window  A* S^{-1} g - g + S(g_dual).

    Requires (g, g_dual) to be an exact dual pair on the lattice, an
    operator that commutes with the lattice generators, and
    ||Id - A|| < 1.  The system of the result has mixed operator A
    against the system of g.

    A :class:`LatticeOperator` on g's grid and lattice commutes by construction
    and gives its blocks; any other operator must pass :func:`commutation_check`
    and is then gathered into g's classes, between which it is zero.  A, S and
    A* are then read block by block.
    """
    if g.grid != g_dual.grid:
        raise DimensionMismatch("windows live on different grids")
    residual = janssen_residual(g, g_dual, lat)  # also rejects b * P not an integer
    if residual > GABOR_DUAL_TOL:
        raise NotDualPair("(g, g_dual) is not an exact dual pair", measured=residual)
    system = _GaborSystem.of(g, lat)
    s = system.frame_blocks
    if isinstance(a_op, LatticeOperator) and (a_op.grid, a_op.lattice) == (g.grid, lat):
        a = a_op
    else:
        dense = oplin.as_operator(a_op)
        comm = commutation_check(dense, lat, g.grid)
        if comm > 1e-9:
            raise NotCommuting("operator must commute with the lattice generators", measured=comm)
        a = LatticeOperator._of(g.grid, lat, ((i, dense[i[:, :, None], i[:, None, :]]) for i, _ in s.groups))
    gap = a.gap()
    if not _strictly_below(gap, 1.0):
        raise ContractViolation("requires ||Id - A|| < 1", measured=gap)
    oplin._require_conditioned(system.eigenvalues)  # S is PSD: its eigenvalues are its singular values
    vg = _embed(g)
    adj = a.apply(system.solve(vg[:, None])[:, 0], lambda a_r, x: np.conj(np.swapaxes(a_r, -1, -2)) @ x)
    return _unembed(g.grid, adj - vg + s.apply(_embed(g_dual)))


def char_dual_check(
    c: RationalLike, c_other: RationalLike, a: RationalLike, grid: GridSpec
) -> bool:
    """Duality verdict for a pair of indicator windows on the unit frequency step.

    True exactly when the sampled pair (indicator of [0,c), indicator of
    [0,c_other)) passes the lattice-sum criterion with b = 1; on a sweep
    this agrees with: both widths at most 1 and a = min of the widths.
    """
    g = sample_char(c, grid)
    h = sample_char(c_other, grid)
    lat = GaborLattice(as_fraction(a), Fraction(1))
    return janssen_residual(g, h, lat) <= GABOR_DUAL_TOL
