"""Gabor systems on a sampled periodic line.

The continuous line is replaced by a periodic grid of ``P`` units sampled
``s`` times per unit (``L = s * P`` points, inner product weighted by
``1/s``).  Windows are sampled functions; a time-frequency lattice is a
pair of positive rationals ``(a, b)`` (time step in units, frequency step
in cycles per unit).  Gabor systems are ordinary
:class:`~dualframes.frames.Frame` objects of dimension ``L`` through the
isometric embedding ``values / sqrt(s)``, so all duality machinery
applies verbatim.  This module builds a system's Walnut (Zibulski-Zeevi)
residue-class factor (:func:`_system`), a :class:`~dualframes.oplin.ClassFactor`
of many classes, by which its frame is held, as every frame is; the frame of a
window on a lattice is built once and kept on the window.  One batched thin SVD
of the factor gives every spectral fact, and the ``L x N`` synthesis matrix is
built only when read.  The frame operator, and the mixed operator against a system on
the same grid and lattice, are the residue-class blocks, held by :class:`LatticeOperator`,
which ``np.asarray`` makes dense.  :func:`approx_dual_window` is the construction of
:func:`~dualframes.duality.approx_dual_via_dual` on g's system, read out as its first
vector; a dense operator must pass :func:`commutation_check` to be gathered into it.

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

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from numbers import Integral
from typing import Sequence, Union

import numpy as np

from . import oplin
from .errors import (
    BadCoefficients,
    DimensionMismatch,
    HypothesisViolated,
    LatticeMismatch,
    NotCommuting,
    NotDualPair,
    OffGrid,
    SupportOverflow,
)
from .duality import _via_dual
from .frames import Frame, FrameBounds, _gathered, _pair, frame_bounds, require_frame
from .oplin import ClassFactor, LatticeOperator, _frozen, operator_norm
from .tolerances import (
    CK_COEFF_TOL,
    COMMUTATOR_TOL,
    DUAL_TOL,
    PAINLESS_MATCH_TOL,
    PAINLESS_WEIGHT_FLOOR,
    SUPPORT_TOL,
)

RationalLike = Union[Fraction, int, str]


def _as_float(q: Fraction) -> float:
    return float(q) if q <= sys.float_info.max else math.inf  # not float(q)'s OverflowError


def as_fraction(value: RationalLike) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise OffGrid(f"not a rational number: {value!r}") from exc


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


@dataclass(frozen=True, eq=False)
class SampledWindow:
    """A function on the grid, indexed periodically; its values are a read-only copy: float64 when
    no sample has an imaginary part (all exactly 0 in a complex array), else complex128."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(oplin._narrowest(self.values).reshape(-1))
        if v.shape[0] != self.grid.total:
            raise DimensionMismatch(f"expected {self.grid.total} samples, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("window has non-finite samples")
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        if self.values.dtype == float:
            return True
        peak = float(np.max(np.abs(self.values))) or 1.0
        return float(np.max(np.abs(self.values.imag))) <= SUPPORT_TOL * peak


def sample_function(func, grid: GridSpec, centered: bool = False) -> SampledWindow:
    """Sample a callable on the grid (optionally on centered coordinates)."""
    x = grid.centered_points() if centered else grid.points()
    return SampledWindow(grid, func(x))


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
    All orders keep exact partition of unity over integer shifts and support
    inside [0, order].  ValueError when s^(order - 1) overflows a float.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if grid.period < order:
        raise SupportOverflow(
            f"support [0, {order}] does not fit a period of {grid.period}"
        )
    s = grid.samples_per_unit
    try:
        scale = float(s) ** (order - 1)
    except OverflowError:
        raise ValueError(f"the B-spline's sample counts, up to {s}^{order - 1}, overflow a float") from None
    values = np.zeros(grid.total)
    values[:s] = 1.0
    # Integer counts throughout, one final scale: every sample is the
    # correctly rounded value of an exact rational.
    kernel = np.zeros(s + 1)
    kernel[1:] = 1.0
    for _ in range(order - 1):
        values = np.convolve(values, kernel)[: grid.total]
    return SampledWindow(grid, values / scale)


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


def _system(g: SampledWindow, lat: GaborLattice) -> ClassFactor:
    """The class factor of the system of ``g`` on ``lat``; ValueError when its vectors are
    too many to count in a float, or when a sample of the factor overflows.

    With M = s/b ``modulations`` and K = P/a shifts of a s samples, row x of T lies in the
    class r = x mod M: T[r + M k, n M + m] = omega^(m r) factor_r[k, n] / sqrt(M),
    factor_r[k, n] = sqrt(M / s) g(r + M k - n a s), time mod L.  ``index[c]`` holds the
    floor(L/M) or ceil(L/M) samples of a class (b P when b P is an integer)."""
    grid = g.grid
    step, shifts, m = lat.time_step(grid), lat.shifts(grid), lat.modulations(grid)
    if shifts * m > sys.float_info.max:
        raise ValueError("the system's (P/a)(s/b) vectors are too many to count in a float")
    with np.errstate(over="ignore"):
        values = oplin._require_finite(g.values / np.sqrt(grid.samples_per_unit) * math.sqrt(m))
    size, longer = divmod(grid.total, m)  # classes r < longer hold one sample more
    groups = []
    for first, last, rows in ((0, longer, size + 1), (longer, m, size)):
        if rows and last > first:  # a class of two or more samples has M < L
            index = np.arange(first, last)[:, None] + min(m, grid.total) * np.arange(rows)
            at = (index[..., None] - step * np.arange(shifts)) % grid.total  # x - n a s
            groups.append((_frozen(index), _frozen(values[at])))
    return ClassFactor((grid.total, shifts * m), m, tuple(groups), grid, lat)


def gabor_frame(g: SampledWindow, lat: GaborLattice) -> Frame:
    """The system of modulate-after-shift copies of g, as a Frame.

    The one frame of g on ``lat``, built once and kept on g as a cached_property is,
    so every fact it keeps is computed once per window and lattice.  It is held by
    its class factor (see :func:`_system`) and builds its L x N synthesis matrix
    (columns shift-major, modulation-minor) only when ``synthesis`` is read.
    ValueError when its N = (P/a)(s/b) vectors are too many to count in a float.
    The embedding scales by 1/sqrt(s) so that frame-operator spectra match the
    weighted function-space inner product (e.g. the indicator of [0,1) on the unit
    lattice yields a tight frame with bounds (1, 1)).
    """
    kept = g.__dict__.setdefault("_frames", {})
    if lat not in kept:
        kept[lat] = Frame._over(_system(g, lat))
    return kept[lat]


@np.errstate(over="ignore")  # an overflow is the ValueError below, not a warning
def walnut_weight(g: SampledWindow, a: RationalLike) -> SampledWindow:
    """Periodized shift-energy sum_n |g(x - n a)|^2 on the grid.

    The time step is checked as in :class:`GaborLattice` (the weight does
    not depend on the frequency step).
    """
    lat = GaborLattice(a, 1)
    step = lat.time_step(g.grid)
    shifts = lat.shifts(g.grid)
    magnitude = np.abs(g.values)
    total = np.tile(_periodize(magnitude * magnitude, step), shifts)
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


@dataclass(frozen=True, eq=False)
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
            f"painless hypothesis: requires b <= 1/{support}", measured=_as_float(lat.b)
        )
    weight = walnut_weight(g, lat.a).values.real
    if weight.min() <= PAINLESS_WEIGHT_FLOOR * weight.max():
        raise HypothesisViolated(
            "painless hypothesis: shift-energy weight not bounded away from 0",
            measured=float(weight.min()),
        )
    lat.adjoint_shifts(g.grid)  # diagonality needs periodic modulations
    frame = gabor_frame(g, lat)
    s = _pair(frame, frame).mixed
    diag = np.empty(g.grid.total)
    for index, blocks in s.groups:
        diag[index] = np.real(np.diagonal(blocks, axis1=-2, axis2=-1))
    # S is zero between classes, so ||S - diag(S)|| is the largest block's
    off = s.distance(s._with(blocks * np.eye(blocks.shape[-1]) for _, blocks in s.groups))
    bounds = frame_bounds(frame)
    scale, b = bounds.upper, float(lat.b)  # ||S|| = lambda_max(S), S being PSD
    err_wb = float(np.max(np.abs(diag - weight / b))) / scale
    err_bw = float(np.max(np.abs(diag - b / weight))) / scale
    tol = PAINLESS_MATCH_TOL
    matched = "weight/b" if err_wb <= tol else "b/weight" if err_bw <= tol else "neither"
    return PainlessReport(diagonal=diag, offdiag_relative=off / scale, matched_formula=matched,
                          weight_over_step_error=err_wb, step_over_weight_error=err_bw, bounds=bounds)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is the ValueError below, not a warning
def janssen_residual_table(
    g: SampledWindow, h: SampledWindow, lat: GaborLattice
) -> np.ndarray:
    """Per-adjoint-shift residuals of the lattice-sum duality criterion.

    Entry r is  max over grid points x of
    | sum_k conj(g(x - r/b - k a)) h(x - k a)  -  b delta_{r,0} |,
    where r ranges over the distinct values of r/b on the periodic line
    (there are b * P of them).  ValueError when a sum overflows.
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
    return np.max(np.abs(oplin._require_finite(sums)), axis=1)


def janssen_residual(g: SampledWindow, h: SampledWindow, lat: GaborLattice) -> float:
    """Worst-case deviation of the pair from the lattice-sum duality criterion.

    At most DUAL_TOL (:mod:`dualframes.tolerances`) certifies that the two
    systems are exact duals (and this agrees with their approximation rate
    dropping to the same tolerance).
    """
    return float(np.max(janssen_residual_table(g, h, lat)))


def _require_ck_window(g: SampledWindow, support: int, b: Fraction) -> None:
    if not g.is_real:
        raise HypothesisViolated("dual-generator hypothesis: window must be real-valued")
    pou = partition_of_unity_residual(g)
    if pou > DUAL_TOL:
        raise HypothesisViolated(
            "dual-generator hypothesis: partition of unity fails", measured=pou
        )
    _check_support(g, support, "dual-generator hypothesis")
    if b > Fraction(1, 2 * support - 1):
        raise HypothesisViolated(
            f"dual-generator hypothesis: requires b <= 1/{2 * support - 1}", measured=_as_float(b)
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
    values = np.zeros(g.grid.total, dtype=g.values.dtype)
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
    if abs(coeffs[mid] - bf) > CK_COEFF_TOL * bf:
        violations.append(f"a_0 = {coeffs[mid]!r} must equal b = {bf!r}")
    for n in range(1, support):
        total = coeffs[mid + n] + coeffs[mid - n]
        if abs(total - 2 * bf) > CK_COEFF_TOL * 2 * bf:
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
    :class:`LatticeOperator`; the unscaled spectrum is ``gabor_frame(l_window, lat).eigenvalues``.
    """
    frame = gabor_frame(l_window, lat)
    upper = frame_bounds(frame).upper
    require_frame(frame, "scaling system")
    s = _pair(frame, frame).mixed
    return s._with(b / upper for _, b in s.groups)


def mixed_lattice_operator(g: SampledWindow, h: SampledWindow, lat: GaborLattice) -> LatticeOperator:
    """``mixed_operator(gabor_frame(g, lat), gabor_frame(h, lat))`` as a :class:`LatticeOperator`."""
    if g.grid != h.grid:
        raise DimensionMismatch("windows live on different grids")
    return _pair(gabor_frame(g, lat), gabor_frame(h, lat)).mixed


def approx_dual_window(
    g: SampledWindow, g_dual: SampledWindow, a_op, lat: GaborLattice
) -> SampledWindow:
    """Approximately dual window  A* S^{-1} g - g + S(g_dual).

    Requires (g, g_dual) to be an exact dual pair on the lattice, an operator that
    commutes with the lattice generators, and ||Id - A|| < 1; :class:`NotAFrame` when
    g's system fails the frame test, as S^{-1} is read.  The system of the result has
    mixed operator A against the system of g.

    A :class:`LatticeOperator` on g's grid and lattice commutes by construction and
    gives its blocks; any other operator must pass :func:`commutation_check` and is then
    gathered into g's classes, between which it is zero.  The result is the first vector
    of :func:`~dualframes.duality.approx_dual_via_dual`'s construction on g's system,
    which it keeps as its own system.
    """
    if g.grid != g_dual.grid:
        raise DimensionMismatch("windows live on different grids")
    residual = janssen_residual(g, g_dual, lat)  # also rejects b * P not an integer
    if residual > DUAL_TOL:
        raise NotDualPair("(g, g_dual) is not an exact dual pair", measured=residual)
    frame = gabor_frame(g, lat)
    if isinstance(a_op, LatticeOperator) and (a_op.grid, a_op.lattice) == (g.grid, lat):
        a = a_op
    else:
        dense = oplin.as_operator(a_op)
        comm = commutation_check(dense, lat, g.grid)
        if comm > COMMUTATOR_TOL:
            raise NotCommuting("operator must commute with the lattice generators", measured=comm)
        a = _gathered(frame._system, dense)
    require_frame(frame, "window system")
    return _window_of(_via_dual(frame, gabor_frame(g_dual, lat), a, "||Id - A||"))


def _window_of(frame: Frame) -> SampledWindow:
    """The window whose system is ``frame``, held by a factor on a grid and lattice: its first
    vector (n = m = 0) de-embedded, values[index_r] = factor_r[:, 0] sqrt(s/M).  ``frame`` is
    kept on the window as :func:`gabor_frame` keeps a window's system."""
    system = frame._system
    values = np.empty(system.shape[0], dtype=np.result_type(*(f for _, f in system.groups)))
    for index, factor in system.groups:
        values[index] = factor[..., 0]
    window = SampledWindow(system.grid, values * math.sqrt(system.grid.samples_per_unit / system.modulations))
    window.__dict__["_frames"] = {system.lattice: frame}
    return window


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
    return janssen_residual(g, h, lat) <= DUAL_TOL
