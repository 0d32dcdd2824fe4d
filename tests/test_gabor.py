from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualframes import frames, gabor
from dualframes import (
    BadCoefficients,
    ContractViolation,
    DimensionMismatch,
    Frame,
    GaborLattice,
    GridSpec,
    HypothesisViolated,
    LatticeMismatch,
    LatticeOperator,
    NotApproxDual,
    NotCommuting,
    NotDualPair,
    OffGrid,
    SampledWindow,
    SupportOverflow,
    approx_dual_via_dual,
    approx_dual_window,
    approximation_rate,
    bspline_value,
    char_dual_check,
    ck_dual1,
    canonical_dual,
    ck_dual2,
    classify_pair,
    commutation_check,
    frame_bounds,
    frame_operator,
    gabor_frame,
    gdual_factorization,
    identity,
    is_frame,
    janssen_residual,
    janssen_residual_table,
    mixed_lattice_operator,
    mixed_operator,
    operator_norm,
    painless_check,
    partition_of_unity_residual,
    recover_parameters,
    sample_bspline,
    sample_char,
    sample_function,
    scaled_gabor_operator,
    transfer_approx_dual,
    walnut_weight,
)


class TestGrid:
    def test_points(self):
        grid = GridSpec(4, 2)
        assert grid.total == 8
        assert np.allclose(grid.points(), np.arange(8) / 4)

    def test_centered_points_wrap(self):
        grid = GridSpec(2, 4)
        x = grid.centered_points()
        assert x.min() >= -2.0 and x.max() < 2.0
        assert x[0] == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(Exception):
            GridSpec(0, 4)

    @pytest.mark.parametrize("sizes", [(2.5, 2), (2, 2.0), ("2", 2), (2, None)])
    def test_rejects_non_integral_sizes(self, sizes):
        with pytest.raises(DimensionMismatch, match="must be positive integers"):
            GridSpec(*sizes)

    def test_accepts_numpy_integers(self):
        grid = GridSpec(np.int64(4), np.int32(2))
        assert grid == GridSpec(4, 2) and grid.total == 8


class TestBSpline:
    def test_order_one_indicator(self):
        grid = GridSpec(4, 3)
        w = sample_bspline(1, grid)
        assert np.allclose(w.values[:4], 1.0)
        assert np.allclose(w.values[4:], 0.0)

    def test_order_two_hat(self):
        grid = GridSpec(10, 4)
        w = sample_bspline(2, grid)
        # rising edge j/s, peak exactly 1 at x = 1, falling edge 2 - j/s
        assert w.values[10].real == 1.0
        assert np.allclose(w.values[:11].real, np.arange(11) / 10)
        assert np.allclose(w.values[10:21].real, (20 - np.arange(10, 21)) / 10)

    def test_partition_of_unity_all_orders(self):
        grid = GridSpec(7, 12)
        for order in range(1, 7):
            w = sample_bspline(order, grid)
            assert partition_of_unity_residual(w) <= 1e-12

    def test_support(self):
        grid = GridSpec(6, 9)
        for order in (2, 3, 5):
            w = sample_bspline(order, grid)
            assert np.max(np.abs(w.values[order * 6 :])) == 0.0

    def test_support_overflow(self):
        with pytest.raises(SupportOverflow):
            sample_bspline(4, GridSpec(8, 3))

    def test_matches_continuous_hat(self):
        grid = GridSpec(8, 4)
        w = sample_bspline(2, grid)
        assert np.allclose(w.values.real, bspline_value(2, grid.points()), atol=1e-12)


class TestBSplineValue:
    def test_indicator(self):
        assert bspline_value(1, [0.0, 0.5, 0.999, 1.0, -0.1]).tolist() == [1, 1, 1, 0, 0]

    def test_hat(self):
        x = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        assert np.allclose(bspline_value(2, x), [0, 0.5, 1.0, 0.5, 0.0, 0.0])

    def test_partition_of_unity(self):
        x = np.linspace(0.0, 1.0, 17)
        for order in (3, 5, 8):
            total = sum(bspline_value(order, x + n) for n in range(-order, order + 1))
            assert np.allclose(total, 1.0, atol=1e-11)

    def test_unit_mass(self):
        x = np.arange(0, 8, 1e-3)
        assert np.trapezoid(bspline_value(8, x), x) == pytest.approx(1.0, abs=1e-6)


class TestSampleChar:
    def test_unit_width(self):
        w = sample_char(1, GridSpec(4, 3))
        assert np.allclose(w.values[:4], 1.0) and np.allclose(w.values[4:], 0.0)

    def test_half_width(self):
        w = sample_char(Fraction(1, 2), GridSpec(4, 3))
        assert np.allclose(w.values[:2], 1.0) and np.allclose(w.values[2:], 0.0)

    def test_full_period(self):
        w = sample_char(3, GridSpec(4, 3))
        assert np.allclose(w.values, 1.0)

    def test_off_grid(self):
        with pytest.raises(OffGrid):
            sample_char(Fraction(1, 3), GridSpec(4, 3))

    def test_too_wide(self):
        with pytest.raises(OffGrid):
            sample_char(4, GridSpec(4, 3))


class TestGaborFrame:
    def test_spike_full_lattice_tight(self):
        grid = GridSpec(3, 2)
        spike = SampledWindow(grid, np.eye(1, grid.total, 0).ravel())
        lat = GaborLattice(Fraction(1, 3), Fraction(3, 2))
        frame = gabor_frame(spike, lat)
        lower, upper = frame_bounds(frame)
        assert lower == pytest.approx(upper, rel=1e-12)

    def test_unit_char_orthonormal_bounds(self):
        grid = GridSpec(4, 3)
        frame = gabor_frame(sample_char(1, grid), GaborLattice(1, 1))
        assert frame_bounds(frame) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert frame.count == 12 and frame.dim == 12

    def test_undersampled_is_not_frame(self):
        grid = GridSpec(4, 4)
        frame = gabor_frame(sample_char(1, grid), GaborLattice(2, 1))  # a b = 2 > 1
        assert frame_bounds(frame).lower == 0.0

    def test_column_ordering_shift_major(self):
        grid = GridSpec(2, 2)
        g = sample_char(1, grid)
        lat = GaborLattice(1, 1)
        frame = gabor_frame(g, lat)
        n_m = lat.modulations(grid)
        # column n*n_m + 0 is the unmodulated shift by n units
        shifted = np.roll(g.values, lat.time_step(grid)) / np.sqrt(2)
        assert np.allclose(frame.synthesis[:, n_m], shifted)

    def test_off_grid_step(self):
        grid = GridSpec(4, 3)
        with pytest.raises(LatticeMismatch):
            gabor_frame(sample_char(1, grid), GaborLattice(Fraction(1, 3), 1))

    def test_nonperiodic_modulations_still_materialize(self):
        # b * P not an integer: frame building is allowed (duality sums are not)
        grid = GridSpec(4, 3)
        lat = GaborLattice(1, Fraction(1, 2))
        frame = gabor_frame(sample_char(1, grid), lat)
        assert frame.count == 3 * 8
        with pytest.raises(OffGrid):
            lat.adjoint_shifts(grid)


class TestWalnutWeight:
    def test_unit_tiling(self):
        grid = GridSpec(4, 3)
        w = walnut_weight(sample_char(1, grid), 1)
        assert np.allclose(w.values, 1.0)

    def test_double_cover(self):
        grid = GridSpec(4, 3)
        w = walnut_weight(sample_char(1, grid), Fraction(1, 2))
        assert np.allclose(w.values, 2.0)

    def test_bspline_two_overlaps(self):
        grid = GridSpec(5, 4)
        b2 = sample_bspline(2, grid)
        w = walnut_weight(b2, 1)
        direct = np.abs(b2.values) ** 2 + np.abs(np.roll(b2.values, 5)) ** 2 + np.abs(
            np.roll(b2.values, 10)
        ) ** 2 + np.abs(np.roll(b2.values, 15)) ** 2
        assert np.allclose(w.values, direct)

    def test_off_grid(self):
        with pytest.raises(LatticeMismatch):
            walnut_weight(sample_char(1, GridSpec(4, 3)), Fraction(1, 3))

    @pytest.mark.parametrize("a", [-1, 0])
    def test_rejects_nonpositive_step(self, a):
        with pytest.raises(LatticeMismatch):
            walnut_weight(sample_bspline(2, GridSpec(4, 4)), a)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_weight_is_named(self):
        # a finite window whose weight sum_n |g(x - n a)|^2 exceeds the float range
        grid = GridSpec(4, 4)
        huge = SampledWindow(grid, sample_bspline(2, grid).values * 1e200)
        with pytest.raises(ValueError, match="shift-energy weight"):
            walnut_weight(huge, 1)
        with pytest.raises(ValueError, match="shift-energy weight"):
            painless_check(huge, GaborLattice(1, Fraction(1, 4)), 2)


class TestPainless:
    def test_half_shift_unit_char(self):
        grid = GridSpec(8, 2)
        report = painless_check(sample_char(1, grid), GaborLattice(Fraction(1, 2), 1), 1)
        assert np.allclose(report.diagonal, 2.0, atol=1e-12)
        assert report.offdiag_relative <= 1e-10
        assert report.matched_formula == "weight/b"
        assert report.step_over_weight_error > 1e-3  # the inverted formula fails
        assert report.bounds == pytest.approx((2.0, 2.0), abs=1e-11)

    def test_bspline_diagonal_matches_weight(self):
        grid = GridSpec(6, 6)
        b2 = sample_bspline(2, grid)
        lat = GaborLattice(1, Fraction(1, 3))
        report = painless_check(b2, lat, 2)
        weight = walnut_weight(b2, 1).values.real
        assert np.allclose(report.diagonal, weight * 3.0, atol=1e-10)
        assert report.matched_formula == "weight/b"

    def test_bounds_follow_the_frame_bounds_rule(self):
        # lambda_min = 2e-11 sits below FRAME_THRESHOLD_REL * lambda_max: not a frame
        grid = GridSpec(4, 2)
        values = sample_char(1, grid).values.copy()
        values[1] = 10 ** -5.5
        g = SampledWindow(grid, values)
        lat = GaborLattice(1, Fraction(1, 2))
        bounds = painless_check(g, lat, 1).bounds
        assert bounds == frame_bounds(gabor_frame(g, lat))
        assert bounds.lower == 0.0

    def test_rejects_large_frequency_step(self):
        grid = GridSpec(6, 6)
        with pytest.raises(HypothesisViolated):
            painless_check(sample_bspline(2, grid), GaborLattice(1, 1), 2)

    def test_rejects_vanishing_weight(self):
        grid = GridSpec(4, 4)
        # shifts of [0, 1/2) by steps of 1 leave gaps
        with pytest.raises(HypothesisViolated):
            painless_check(sample_char(Fraction(1, 2), grid), GaborLattice(1, Fraction(1, 2)), 1)

    def test_rejects_wrong_support(self):
        grid = GridSpec(4, 4)
        with pytest.raises(HypothesisViolated):
            painless_check(sample_char(2, grid), GaborLattice(1, Fraction(1, 2)), 1)


class TestJanssen:
    def test_orthonormal_case(self):
        grid = GridSpec(4, 4)
        g = sample_char(1, grid)
        assert janssen_residual(g, g, GaborLattice(1, 1)) <= 1e-12

    def test_bspline_dual(self):
        grid = GridSpec(10, 20)
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 10))
        assert janssen_residual(b2, dual, GaborLattice(1, Fraction(1, 10))) <= 1e-10

    def test_zero_partner_residual_is_b(self):
        grid = GridSpec(4, 4)
        g = sample_char(1, grid)
        zero = SampledWindow(grid, np.zeros(grid.total))
        assert janssen_residual(g, zero, GaborLattice(1, 1)) == pytest.approx(1.0)

    def test_table_shape_and_max(self):
        grid = GridSpec(10, 20)
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 10))
        lat = GaborLattice(1, Fraction(1, 10))
        table = janssen_residual_table(b2, dual, lat)
        assert table.shape == (2,)  # b * P distinct adjoint shifts
        assert janssen_residual(b2, dual, lat) == pytest.approx(float(table.max()))

    def test_agrees_with_materialized_rate(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 3))
        residual = janssen_residual(b2, dual, lat)
        rate = approximation_rate(gabor_frame(b2, lat), gabor_frame(dual, lat))
        assert (residual <= 1e-10) == (rate <= 1e-10)
        assert residual <= 1e-10
        # and a non-dual pair fails both oracles
        bad = sample_char(1, grid)
        residual_bad = janssen_residual(b2, bad, lat)
        rate_bad = approximation_rate(gabor_frame(b2, lat), gabor_frame(bad, lat))
        assert residual_bad > 1e-6 and rate_bad > 1e-6

    def test_grid_mismatch(self):
        g = sample_char(1, GridSpec(4, 4))
        h = sample_char(1, GridSpec(4, 5))
        with pytest.raises(Exception):
            janssen_residual(g, h, GaborLattice(1, 1))

    def test_nonperiodic_modulations_rejected(self):
        grid = GridSpec(4, 3)
        g = sample_char(1, grid)
        with pytest.raises(OffGrid):
            janssen_residual(g, g, GaborLattice(1, Fraction(1, 2)))


def _roll_loop_table(g, h, lat):
    """The lattice-sum residual table as a double loop over time and adjoint shifts."""
    grid = g.grid
    step, adj_step = lat.time_step(grid), lat.modulations(grid)
    table = np.zeros(lat.adjoint_shifts(grid))
    for r in range(len(table)):
        acc = np.zeros(grid.total, dtype=complex)
        for k in range(lat.shifts(grid)):
            acc += np.conj(np.roll(g.values, r * adj_step + k * step)) * np.roll(h.values, k * step)
        table[r] = np.max(np.abs(acc - (float(lat.b) if r == 0 else 0.0)))
    return table


def _roll_loop_weight(g, a):
    lat = GaborLattice(a, 1)
    step = lat.time_step(g.grid)
    return sum(np.abs(np.roll(g.values, n * step)) ** 2 for n in range(lat.shifts(g.grid)))


def _roll_loop_partition_residual(g):
    s = g.grid.samples_per_unit
    pou = sum(np.roll(g.values, n * s) for n in range(g.grid.period))
    return float(np.max(np.abs(pou - 1.0)))


class TestLatticeSums:
    """The periodized lattice sums against roll loops over the time shifts."""

    @settings(max_examples=80, deadline=None)
    @given(
        s=st.sampled_from([2, 4, 6]),
        period=st.sampled_from([2, 4, 6]),
        a=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
        b_times_period=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_roll_loops(self, s, period, a, b_times_period, seed):
        grid = GridSpec(s, period)
        assume(s * period % b_times_period == 0)  # s/b integer
        lat = GaborLattice(a, Fraction(b_times_period, period))
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((2, 2, grid.total))
        g, h = (SampledWindow(grid, re + 1j * im) for re, im in parts)
        # every entry is bounded by this magnitude of the summands
        peak = np.max(np.abs(g.values)) * np.max(np.abs(h.values))
        scale = lat.shifts(grid) * peak + float(lat.b)
        table = janssen_residual_table(g, h, lat)
        assert table.shape == (b_times_period,)
        assert np.max(np.abs(table - _roll_loop_table(g, h, lat))) <= 1e-12 * scale
        weight = walnut_weight(g, a).values
        oracle = _roll_loop_weight(g, a)
        assert np.max(np.abs(weight - oracle)) <= 1e-12 * np.max(oracle)
        residual = partition_of_unity_residual(g)
        oracle_pou = _roll_loop_partition_residual(g)
        assert abs(residual - oracle_pou) <= 1e-12 * (period * np.max(np.abs(g.values)) + 1)


class TestClassBlocks:
    """The residue-class block readers against the dense oracle Frame(np.array(T)).

    The modulation count M = s/b runs over divisors of L (b * P an integer,
    equal classes), non-divisors (classes of two sizes) and values above L
    (empty classes).
    """

    @settings(max_examples=80, deadline=None)
    @given(
        s=st.sampled_from([2, 4, 6]),
        period=st.sampled_from([2, 4, 6]),
        a=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
        modulations=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(s=2, period=2, a=Fraction(1, 2), modulations=7, seed=0)  # M > L
    @example(s=4, period=6, a=Fraction(1), modulations=10, seed=1)  # b * P = 12/5
    def test_match_the_dense_oracle(self, s, period, a, modulations, seed):
        grid = GridSpec(s, period)
        lat = GaborLattice(a, Fraction(s, modulations))
        rng = np.random.default_rng(seed)
        g, h = (SampledWindow(grid, re + 1j * im) for re, im in rng.standard_normal((2, 2, grid.total)))
        phi, psi = gabor_frame(g, lat), gabor_frame(h, lat)
        phi_d, psi_d = (Frame(np.array(f.synthesis)) for f in (gabor_frame(g, lat), gabor_frame(h, lat)))

        scale = max(phi_d.eigenvalues[-1], psi_d.eigenvalues[-1], 1.0)
        tol = 1e-12 * scale
        assert len(phi.eigenvalues) == grid.total
        assert np.max(np.abs(phi.eigenvalues - phi_d.eigenvalues)) <= tol
        for block, dense in ((phi, phi_d), (psi, psi_d)):
            lower, upper = frame_bounds(block)
            lower_d, upper_d = frame_bounds(dense)
            assert abs(upper - upper_d) <= tol
            assert abs(lower - lower_d) <= tol or 0.0 in (lower, lower_d)
            assert np.max(np.abs(frame_operator(block) - frame_operator(dense))) <= tol
        assert np.max(np.abs(mixed_operator(phi, psi) - mixed_operator(phi_d, psi_d))) <= tol
        assert abs(approximation_rate(phi, psi) - approximation_rate(phi_d, psi_d)) <= tol
        # a system against a plain frame takes the dense path
        assert abs(approximation_rate(phi, psi_d) - approximation_rate(phi_d, psi_d)) <= tol

    def test_block_readers_build_no_synthesis_matrix(self, monkeypatch):
        built = []
        materialize = gabor._GaborSystem.synthesis

        def counted(system):
            built.append(system.shape)
            return materialize(system)

        monkeypatch.setattr(gabor._GaborSystem, "synthesis", counted)
        grid = GridSpec(16, 32)
        lat = GaborLattice(1, Fraction(1, 10))  # b * P = 16/5: classes of sizes 3 and 4
        gaussian = sample_function(lambda x: np.exp(-4.0 * x**2), grid, centered=True)
        other = sample_bspline(3, grid)
        phi, psi = gabor_frame(gaussian, lat), gabor_frame(other, lat)
        assert (phi.dim, phi.count) == (512, 32 * 160)
        assert frame_bounds(phi).lower > 0.0
        approximation_rate(phi, psi)
        mixed_operator(phi, psi)
        frame_operator(psi)
        assert built == []
        phi.synthesis
        phi.synthesis
        assert built == [(512, 32 * 160)]

    @pytest.mark.parametrize("grid, lat, sizes", [
        (GridSpec(10, 20), GaborLattice(1, Fraction(1, 10)), 1),  # 100 classes of 2
        (GridSpec(16, 32), GaborLattice(1, Fraction(1, 10)), 2),  # b * P = 16/5: 32 of 4, 128 of 3
    ])
    def test_one_frame_reads_one_eigh_of_its_blocks(self, grid, lat, sizes, monkeypatch):
        """The bounds, the frame test, S and the canonical dual of a system frame come
        from one batched eigh per class size: no SVD, no eigh or eigvalsh of a matrix."""
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append((_name, a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        phi = gabor_frame(sample_bspline(3, grid), lat)
        frame_bounds(phi), is_frame(phi), frame_operator(phi), canonical_dual(phi)
        frame_bounds(phi), canonical_dual(phi)
        monkeypatch.undo()
        groups = phi._system.frame_blocks.groups
        assert [(name, a.ndim) for name, a in calls] == [("eigh", 3)] * sizes == [("eigh", 3)] * len(groups)
        assert all(a is blocks for (_, a), (_, blocks) in zip(calls, groups))

    def _canonical_dual_matches_the_dense_oracle(self, g, lat):
        phi = gabor_frame(g, lat)
        dual = canonical_dual(phi).synthesis
        oracle = canonical_dual(Frame(np.array(phi.synthesis))).synthesis
        assert operator_norm(dual - oracle) <= 1e-10 * operator_norm(oracle)
        assert classify_pair(phi, canonical_dual(phi)).kind == "dual"

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_canonical_dual_matches_the_dense_oracle_on_10_20(self, data):
        grid, lat = GridSpec(10, 20), GaborLattice(1, Fraction(1, 10))
        self._canonical_dual_matches_the_dense_oracle(data.draw(_frame_windows(grid, lat)), lat)

    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_canonical_dual_matches_the_dense_oracle_on_criterion_10s_grid(self, data):
        grid, lat = GridSpec(16, 32), GaborLattice(1, Fraction(1, 10))  # classes of 3 and 4
        self._canonical_dual_matches_the_dense_oracle(data.draw(_frame_windows(grid, lat)), lat)

    def test_other_lattice_takes_the_dense_path(self):
        grid = GridSpec(4, 4)
        rng = np.random.default_rng(16)
        g, h = (SampledWindow(grid, re + 1j * im) for re, im in rng.standard_normal((2, 2, grid.total)))
        phi = gabor_frame(g, GaborLattice(1, Fraction(1, 2)))
        psi = gabor_frame(h, GaborLattice(2, Fraction(1, 4)))
        assert (phi.dim, phi.count) == (psi.dim, psi.count) == (16, 32)
        phi_d, psi_d = (Frame(np.array(f.synthesis)) for f in (phi, psi))
        # two systems on different lattices, and a system against a plain frame of its own matrix
        for left, right, dense in ((phi, psi, psi_d), (phi, phi_d, phi_d)):
            assert frames._class_blocks(left, right) is None
            assert approximation_rate(left, right) == approximation_rate(phi_d, dense)
            assert np.array_equal(mixed_operator(left, right), mixed_operator(phi_d, dense))

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_overflowing_blocks_raise(self):
        grid = GridSpec(4, 4)
        huge = SampledWindow(grid, sample_bspline(2, grid).values * 1e200)
        lat = GaborLattice(1, Fraction(1, 4))
        for read in (frame_bounds, frame_operator, lambda f: approximation_rate(f, f)):
            with pytest.raises(ValueError, match="non-finite"):
                read(gabor_frame(huge, lat))


class TestGaborPairPipeline:
    """The pair functions on lazy Gabor systems against the dense oracle
    Frame(np.array(system.synthesis)); the lazy pairs read their rate from the blocks."""

    grid = GridSpec(6, 6)
    lat = GaborLattice(1, Fraction(1, 3))

    def windows(self):
        g = sample_bspline(2, self.grid)
        dual = ck_dual1(g, 2, self.lat.b)
        a_op = scaled_gabor_operator(sample_bspline(3, self.grid), self.lat)
        partners = {
            "dual": dual,
            "approx": approx_dual_window(g, dual, a_op, self.lat),
            "gdual": SampledWindow(self.grid, 3.0 * dual.values),  # mixed operator 3 Id
            "none": SampledWindow(self.grid, np.zeros(self.grid.total)),  # mixed operator 0
        }
        return g, partners, a_op

    def frames(self, *windows):
        lazy = [gabor_frame(w, self.lat) for w in windows]
        return lazy, [Frame(np.array(gabor_frame(w, self.lat).synthesis)) for w in windows]

    @pytest.mark.parametrize("kind", ["dual", "approx", "gdual", "none"])
    def test_verdicts_match_the_dense_pair(self, kind):
        g, partners, _ = self.windows()
        (phi, psi), (phi_d, psi_d) = self.frames(g, partners[kind])
        gap = mixed_lattice_operator(g, partners[kind], self.lat).gap()
        norms, norm = [], np.linalg.norm

        def counted_norm(x, ord=None, *args, **kwargs):
            if np.ndim(x) == 2 and ord in (2, -2):  # a 2-norm of a matrix is an SVD
                norms.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        with mock.patch.object(np.linalg, "norm", counted_norm):
            classified = classify_pair(phi, psi)
        assert norms == []  # its rate is the block gap, not the 2-norm of an L x L matrix
        for lazy, dense in ((classified, classify_pair(phi_d, psi_d)),
                            (gdual_factorization(phi, psi), gdual_factorization(phi_d, psi_d))):
            assert lazy.kind == dense.kind == kind
            assert lazy.rate == gap
            assert abs(lazy.rate - dense.rate) <= 1e-12
        if kind in ("dual", "approx"):
            w_lazy, theta_lazy = recover_parameters(phi, psi)
            w_dense, theta_dense = recover_parameters(phi_d, psi_d)
            assert np.max(np.abs(w_lazy - w_dense)) <= 1e-12
            assert np.max(np.abs(theta_lazy.map - theta_dense.map)) <= 1e-12
        else:
            for pair in ((phi, psi), (phi_d, psi_d)):
                with pytest.raises(NotApproxDual) as err:
                    recover_parameters(*pair)
                assert abs(err.value.measured - gap) <= 1e-12

    def test_transfer_keeps_the_mixed_operator(self):
        g, partners, _ = self.windows()
        moved = SampledWindow(self.grid, g.values * (1.0 + 0.01 * np.cos(self.grid.points())))
        lazy, dense = self.frames(g, moved, partners["approx"])
        results = [transfer_approx_dual(*frames) for frames in (lazy, dense)]
        for result in results:
            assert result.mixed_match_residual <= 1e-9
            assert result.measured_diff_bound <= result.predicted_diff_bound + 1e-9
        assert np.max(np.abs(results[0].psi_dual.synthesis - results[1].psi_dual.synthesis)) <= 1e-9

    def test_via_dual_holds_its_exact_dual_gate(self):
        g, partners, a_op = self.windows()
        target = np.asarray(a_op)
        (phi, phi_dual, phi_ad), (phi_d, dual_d, ad_d) = self.frames(g, partners["dual"], partners["approx"])
        lazy = approx_dual_via_dual(phi, phi_dual, target=target)
        dense = approx_dual_via_dual(phi_d, dual_d, target=target)
        assert np.max(np.abs(lazy.synthesis - dense.synthesis)) <= 1e-12
        assert operator_norm(mixed_operator(phi_d, lazy) - target) <= 1e-10
        measured = []
        for pair in ((phi, phi_ad), (phi_d, ad_d)):
            with pytest.raises(NotDualPair) as err:
                approx_dual_via_dual(*pair, target=target)
            measured.append(err.value.measured)
        assert measured[0] == mixed_lattice_operator(g, partners["approx"], self.lat).gap()
        assert abs(measured[0] - measured[1]) <= 1e-12


class TestCkDuals:
    def test_ck1_formula_b_spline_two(self):
        grid = GridSpec(10, 20)
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 10))
        expected = 0.1 * b2.values + 0.2 * np.roll(b2.values, -10)
        assert np.array_equal(dual.values, expected)

    def test_ck1_degenerate_order_one(self):
        grid = GridSpec(4, 4)
        g = sample_char(1, grid)
        dual = ck_dual1(g, 1, 1)
        assert np.allclose(dual.values, g.values)

    def test_ck1_order_three(self):
        grid = GridSpec(5, 15)
        b3 = sample_bspline(3, grid)
        dual = ck_dual1(b3, 3, Fraction(1, 5))
        assert janssen_residual(b3, dual, GaborLattice(1, Fraction(1, 5))) <= 1e-10

    def test_ck1_rejects_large_b(self):
        grid = GridSpec(10, 20)
        with pytest.raises(HypothesisViolated):
            ck_dual1(sample_bspline(2, grid), 2, Fraction(1, 2))  # needs b <= 1/3

    def test_ck1_rejects_broken_partition(self):
        grid = GridSpec(10, 20)
        with pytest.raises(HypothesisViolated):
            ck_dual1(sample_char(Fraction(1, 2), grid), 1, Fraction(1, 10))

    def test_ck1_rejects_complex_window(self):
        grid = GridSpec(4, 4)
        w = SampledWindow(grid, sample_char(1, grid).values * 1j)
        with pytest.raises(HypothesisViolated):
            ck_dual1(w, 1, 1)

    def test_ck2_symmetric_choice(self):
        grid = GridSpec(10, 20)
        b2 = sample_bspline(2, grid)
        b = Fraction(1, 10)
        dual = ck_dual2(b2, 2, b, [0.1, 0.1, 0.1])
        assert janssen_residual(b2, dual, GaborLattice(1, b)) <= 1e-10

    def test_ck2_reproduces_ck1(self):
        grid = GridSpec(10, 20)
        b2 = sample_bspline(2, grid)
        b = Fraction(1, 10)
        via_ck2 = ck_dual2(b2, 2, b, [0.0, 0.1, 0.2])  # a_{-1}=0, a_0=b, a_1=2b
        via_ck1 = ck_dual1(b2, 2, b)
        assert np.allclose(via_ck2.values, via_ck1.values, atol=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_ck2_coefficients_give_ck1_exactly(self, order):
        grid = GridSpec(6, 2 * order)
        g = sample_bspline(order, grid)
        for b in (Fraction(1, 2 * order - 1), Fraction(1, 10)):
            coeffs = [0] * (order - 1) + [b] + [2 * b] * (order - 1)
            via_ck2 = ck_dual2(g, order, b, coeffs)
            assert np.array_equal(ck_dual1(g, order, b).values, via_ck2.values)

    def test_ck2_rejects_bad_center(self):
        grid = GridSpec(10, 20)
        b2 = sample_bspline(2, grid)
        with pytest.raises(BadCoefficients) as err:
            ck_dual2(b2, 2, Fraction(1, 10), [0.1, 0.2, 0.1])
        assert any("a_0" in v for v in err.value.violations)

    def test_ck2_rejects_bad_pair_sum(self):
        grid = GridSpec(10, 20)
        b2 = sample_bspline(2, grid)
        with pytest.raises(BadCoefficients):
            ck_dual2(b2, 2, Fraction(1, 10), [0.05, 0.1, 0.1])

    def test_ck2_rejects_wrong_length(self):
        grid = GridSpec(10, 20)
        with pytest.raises(BadCoefficients):
            ck_dual2(sample_bspline(2, grid), 2, Fraction(1, 10), [0.1])

    @pytest.mark.parametrize("support", [0, -1])
    def test_nonpositive_support_is_a_value_error(self, support):
        # unchecked, a support of -1 reads the last s samples as the "tail" beyond it
        b2 = sample_bspline(2, GridSpec(10, 20))
        b = Fraction(1, 10)
        checks = [
            lambda: painless_check(b2, GaborLattice(1, b), support),
            lambda: ck_dual1(b2, support, b),
            lambda: ck_dual2(b2, support, b, [0.1]),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="support must be a positive integer"):
                check()


class TestCommutation:
    def test_identity_commutes(self):
        grid = GridSpec(4, 4)
        assert commutation_check(identity(16), GaborLattice(1, 1), grid) == 0.0

    def test_frame_operator_commutes(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        s = frame_operator(gabor_frame(sample_bspline(2, grid), lat))
        assert commutation_check(s @ s, lat, grid) <= 1e-10 * operator_norm(s @ s)

    @pytest.mark.parametrize("a,b", [(1, Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2))])
    @pytest.mark.parametrize("kind", ["dense", "diagonal", "circulant"])
    def test_matches_dense_generator_matrices(self, a, b, kind):
        # Oracle: the generators as dense L x L matrices and the commutators
        # as matrix products.  A diagonal operator commutes with E and a
        # circulant one with T, so each isolates the other commutator.
        grid = GridSpec(4, 4)
        lat = GaborLattice(a, b)
        n = grid.total
        rng = np.random.default_rng(71)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "diagonal":
            c = np.diag(np.diagonal(c))
        elif kind == "circulant":
            c = c[0][(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
        e = np.diag(np.exp(2j * np.pi * float(lat.b) * grid.points()))
        t = np.roll(np.eye(n, dtype=complex), lat.time_step(grid), axis=0)
        oracle = max(operator_norm(c @ e - e @ c), operator_norm(c @ t - t @ c))
        assert oracle > 0.1
        assert abs(commutation_check(c, lat, grid) - oracle) <= 1e-12 * oracle

    def test_random_diagonal_fails(self):
        grid = GridSpec(4, 4)
        rng = np.random.default_rng(70)
        a = np.diag(rng.standard_normal(16))
        assert commutation_check(a, GaborLattice(1, 1), grid) > 0.1


class TestScaledGaborOperator:
    def test_tight_window_gives_identity(self):
        grid = GridSpec(8, 2)
        a_op = scaled_gabor_operator(sample_char(1, grid), GaborLattice(Fraction(1, 2), 1))
        assert operator_norm(a_op - identity(grid.total)) <= 1e-12

    def test_bspline_diagonal_gap(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        a_op = scaled_gabor_operator(b2, lat)
        system = gabor_frame(b2, lat)
        lower, upper = frame_bounds(system)
        gap = operator_norm(identity(grid.total) - a_op)
        assert gap == pytest.approx(1.0 - lower / upper, abs=1e-10)
        assert gap < 1.0
        assert commutation_check(a_op, lat, grid) <= 1e-9

    def test_rejects_non_frame(self):
        from dualframes import NotAFrame

        grid = GridSpec(4, 4)
        with pytest.raises(NotAFrame):
            scaled_gabor_operator(sample_char(1, grid), GaborLattice(2, 1))


class TestApproxDualWindow:
    def test_identity_operator_keeps_exact_duality(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 3))
        out = approx_dual_window(b2, dual, identity(grid.total), lat)
        assert janssen_residual(b2, out, lat) <= 1e-9

    def test_scaled_operator_prescribes_rate(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 3))
        a_op = scaled_gabor_operator(sample_bspline(3, grid), lat)
        out = approx_dual_window(b2, dual, a_op, lat)
        system = gabor_frame(b2, lat)
        out_system = gabor_frame(out, lat)
        assert operator_norm(mixed_operator(system, out_system) - a_op) <= 1e-9
        rate = approximation_rate(system, out_system)
        assert rate == pytest.approx(operator_norm(identity(grid.total) - a_op), abs=1e-9)

    def test_rejects_non_dual_pair(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        with pytest.raises(NotDualPair):
            approx_dual_window(b2, b2, identity(grid.total), lat)

    def test_rejects_non_commuting_operator(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 3))
        rng = np.random.default_rng(71)
        bad = identity(grid.total) + 0.1 * np.diag(rng.standard_normal(grid.total))
        with pytest.raises(NotCommuting):
            approx_dual_window(b2, dual, bad, lat)

    def test_rejects_distant_operator(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 3))
        with pytest.raises(ContractViolation):
            approx_dual_window(b2, dual, 3.0 * identity(grid.total), lat)

    @pytest.mark.parametrize("scale", [0.0, 2.0])
    def test_rejects_gap_of_exactly_one(self, scale):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 3))
        with pytest.raises(ContractViolation) as err:
            approx_dual_window(b2, dual, scale * identity(grid.total), lat)
        assert err.value.measured == pytest.approx(1.0)

    def test_rejects_shift_that_ignores_the_modulation(self):
        # I + 0.1 (one-sample cyclic shift) commutes with the time shift but couples
        # neighbouring residue classes; gathered into the classes unchecked it would read as I
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 3))
        a_op = identity(grid.total) + 0.1 * np.roll(identity(grid.total), 1, axis=0)
        with pytest.raises(NotCommuting) as err:
            approx_dual_window(b2, dual, a_op, lat)
        assert err.value.measured > 0.01


class TestCharDualCheck:
    # period 3 is divisible by every step in {1/4, 1/2, 3/4, 1}
    def test_half_half_half(self):
        assert char_dual_check(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), GridSpec(4, 3))

    def test_min_rule(self):
        grid = GridSpec(4, 3)
        assert char_dual_check(Fraction(1, 2), Fraction(3, 4), Fraction(1, 2), grid)

    def test_wrong_step_fails(self):
        grid = GridSpec(4, 3)
        assert not char_dual_check(Fraction(1, 2), Fraction(3, 4), Fraction(3, 4), grid)


class TestLatticeInvariants:
    def test_materialized_frame_operator_commutes(self):
        grid = GridSpec(6, 4)
        for a, b in [(1, 1), (Fraction(1, 2), 1), (1, Fraction(1, 2))]:
            lat = GaborLattice(a, b)
            s = frame_operator(gabor_frame(sample_char(1, grid), lat))
            assert commutation_check(s, lat, grid) <= 1e-10 * max(operator_norm(s), 1.0)

    def test_painless_diagonality_generic(self):
        grid = GridSpec(6, 6)
        for order, b in [(2, Fraction(1, 2)), (2, Fraction(1, 3)), (3, Fraction(1, 3))]:
            report = painless_check(sample_bspline(order, grid), GaborLattice(1, b), order)
            assert report.offdiag_relative <= 1e-10

    def test_sample_function_centered(self):
        grid = GridSpec(4, 4)
        w = sample_function(lambda x: np.exp(-(x**2)), grid, centered=True)
        # symmetric around 0 on the periodic line
        assert w.values[1] == pytest.approx(w.values[-1])


@st.composite
def _commensurate_lattices(draw):
    """A grid with s, P in {2, 4, 6} and a lattice (a, k/P) with a <= P/k: b * P is
    an integer and a window supported on [0, 1/b) covers every time shift."""
    s, period = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 4, 6]))
    a = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    k = draw(st.sampled_from([k for k in range(1, int(period / a) + 1) if (s * period) % k == 0]))
    return GridSpec(s, period), GaborLattice(a, Fraction(k, period))


def _frame_window(rng, grid, lat, complex_values):
    """Moduli in [0.5, 1.5] on [0, 1/b) plus a small term on the whole period:
    a well-conditioned frame that is not painless (its S has off-diagonal blocks)."""
    values = np.zeros(grid.total)
    values[: lat.modulations(grid)] = 0.5 + rng.random(lat.modulations(grid))
    noise = rng.standard_normal((2, grid.total))
    values = values + 0.02 * (noise[0] + (1j * noise[1] if complex_values else 0.0))
    if complex_values:
        values = values * np.exp(2j * np.pi * rng.random(grid.total))
    return SampledWindow(grid, values)


@st.composite
def _frame_windows(draw, grid, lat):
    """An order 2-4 B-spline, or a random frame window (see _frame_window)."""
    order = draw(st.sampled_from([None, 2, 3, 4]))
    if order is not None:
        return sample_bspline(order, grid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _frame_window(rng, grid, lat, draw(st.booleans()))


class TestLatticeOperator:
    """scaled_gabor_operator's block value against the dense oracle."""

    @settings(max_examples=60, deadline=None)
    @given(case=_commensurate_lattices(), complex_values=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_operator(self, case, complex_values, seed):
        grid, lat = case
        rng = np.random.default_rng(seed)
        g, scale = (_frame_window(rng, grid, lat, complex_values) for _ in range(2))
        value = scaled_gabor_operator(scale, lat)
        dense = np.asarray(value)
        scale_frame = gabor_frame(scale, lat)
        # bit for bit the scattered S / upper that the function returned as an array
        assert np.array_equal(dense, frame_operator(scale_frame) / frame_bounds(scale_frame).upper)
        oracle = Frame(np.array(scale_frame.synthesis))
        expected = frame_operator(oracle) / frame_bounds(oracle).upper
        assert np.max(np.abs(dense - expected)) <= 1e-12

        gap = value.gap()
        assert abs(gap - operator_norm(identity(grid.total) - dense)) <= 1e-12
        # the canonical dual window, solved densely: an exact dual pair
        s_dense = frame_operator(Frame(np.array(gabor_frame(g, lat).synthesis)))
        g_dual = SampledWindow(grid, np.linalg.solve(s_dense, g.values))
        assert janssen_residual(g, g_dual, lat) <= 1e-12
        from_blocks = approx_dual_window(g, g_dual, value, lat).values
        from_array = approx_dual_window(g, g_dual, dense, lat).values
        assert np.array_equal(from_blocks, from_array)  # the array is gathered back into the same blocks
        # A* S^{-1} g - g + S g_dual with every operator dense (worst seen: 1.05e-12 relative)
        dense_window = dense.conj().T @ np.linalg.solve(s_dense, g.values) - g.values + s_dense @ g_dual.values
        assert np.max(np.abs(from_blocks - dense_window)) <= 1e-10 * np.max(np.abs(dense_window))

    @settings(max_examples=30, deadline=None)
    @given(case=_commensurate_lattices(), complex_values=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_each_build_matches_its_dense_matrix(self, case, complex_values, seed):
        grid, lat = case
        rng = np.random.default_rng(seed)
        g, h, scale = (_frame_window(rng, grid, lat, complex_values) for _ in range(3))
        g_d, h_d, scale_d = (Frame(np.array(gabor_frame(w, lat).synthesis)) for w in (g, h, scale))
        s_dense = frame_operator(g_d)
        g_dual = SampledWindow(grid, np.linalg.solve(s_dense, g.values))
        scaled = scaled_gabor_operator(scale, lat)
        # the value approx_dual_window gathers is the one whose gap it checks
        with mock.patch.object(LatticeOperator, "gap", autospec=True, side_effect=LatticeOperator.gap) as gap:
            approx_dual_window(g, g_dual, np.asarray(scaled), lat)
        gathered = gap.call_args.args[0]
        # built (value, its dense matrix): the mixed operator of two systems, a frame
        # operator over its upper bound, and a dense matrix gathered into g's classes
        frame_op = mixed_lattice_operator(g, g, lat)
        builds = [
            (mixed_lattice_operator(g, h, lat), mixed_operator(g_d, h_d)),
            (frame_op, s_dense),
            (scaled, frame_operator(scale_d) / frame_bounds(scale_d).upper),
            (gathered, np.asarray(scaled)),
        ]
        assert gap.call_count == 1 and gathered is not scaled
        assert np.array_equal(np.asarray(gathered), np.asarray(scaled))
        # the eigenvalues of a system frame, from one eigh of its blocks, against eigvalsh
        # of its dense S and of its frame-operator value; scaled keeps those of its window's
        eigs = gabor_frame(g, lat).eigenvalues
        for eigenvalues, dense in (
            (eigs, s_dense),
            (eigs, np.asarray(frame_op)),
            (scaled.frame_eigenvalues, frame_operator(scale_d)),
        ):
            tol = 1e-12 * max(1.0, operator_norm(dense))
            assert np.max(np.abs(eigenvalues - np.linalg.eigvalsh(dense))) <= tol
        eye = np.eye(grid.total)
        v = rng.standard_normal(grid.total) + 1j * rng.standard_normal(grid.total)
        for value, dense in builds:
            tol = 1e-12 * max(1.0, operator_norm(dense))
            assert np.array_equal(eye - value, eye - np.asarray(value))  # what the benchmark computes
            assert np.max(np.abs(np.asarray(value) - dense)) <= tol
            assert abs(value.gap() - operator_norm(eye - dense)) <= tol
            assert np.max(np.abs(value.apply(v) - dense @ v)) <= tol * np.max(np.abs(v)) * grid.total
            for other, other_dense in builds:
                assert abs(value.distance(other) - operator_norm(other_dense - dense)) <= tol + 1e-12 * max(
                    1.0, operator_norm(other_dense)
                )

    def test_distance_across_lattices_raises(self):
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, GridSpec(6, 6))
        value = scaled_gabor_operator(b2, lat)
        others = [
            scaled_gabor_operator(b2, GaborLattice(1, Fraction(1, 2))),
            scaled_gabor_operator(b2, GaborLattice(Fraction(1, 2), Fraction(1, 3))),
            scaled_gabor_operator(sample_bspline(2, GridSpec(3, 6)), lat),  # another grid
        ]
        for other in others:
            with pytest.raises(LatticeMismatch):
                value.distance(other)

    def test_value_skips_the_dense_checks(self, monkeypatch):
        grid = GridSpec(10, 20)
        lat = GaborLattice(1, Fraction(1, 10))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, Fraction(1, 10))
        value = scaled_gabor_operator(sample_bspline(3, grid), lat)
        calls = []
        check, svd, norm = gabor.commutation_check, np.linalg.svd, np.linalg.norm

        def counted_check(*args):
            calls.append("commutation_check")
            return check(*args)

        def counted_svd(a, *args, **kwargs):
            if np.ndim(a) == 2:
                calls.append("svd")
            return svd(a, *args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            if np.ndim(x) == 2 and ord in (2, -2):  # a 2-norm of a matrix is an SVD
                calls.append("svd")
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(gabor, "commutation_check", counted_check)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        approx_dual_window(b2, dual, value, lat)
        assert calls == []
        approx_dual_window(b2, dual, np.asarray(value), lat)
        assert "commutation_check" in calls and "svd" in calls

    def test_each_system_builds_its_frame_blocks_once(self, monkeypatch):
        built = []
        build = gabor._GaborSystem.class_blocks

        def counted(system, other):
            if other is system:
                built.append(system)  # kept alive, so every id is distinct
            return build(system, other)

        monkeypatch.setattr(gabor._GaborSystem, "class_blocks", counted)
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        frame = gabor_frame(b2, lat)
        frame_bounds(frame)
        frame_operator(frame)
        frame_operator(frame)
        assert len(built) == 1
        scaled_gabor_operator(b2, lat)
        assert len(built) == 2
        painless_check(b2, lat, 2)
        assert len(built) == len({id(system) for system in built}) == 3

    def test_value_on_another_lattice_takes_the_dense_check(self):
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 2))
        g = sample_bspline(1, grid)
        value = scaled_gabor_operator(sample_char(4, grid), GaborLattice(1, Fraction(1, 3)))
        with pytest.raises(NotCommuting) as err:
            approx_dual_window(g, ck_dual1(g, 1, lat.b), value, lat)
        assert err.value.measured > 0.1

    def test_value_is_read_only(self):
        value = scaled_gabor_operator(sample_bspline(2, GridSpec(4, 4)), GaborLattice(1, Fraction(1, 2)))
        index, blocks = value.groups[0]
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 0.0
        with pytest.raises(AttributeError):
            value.groups = ()
        with pytest.raises(TypeError):  # the blocks always come from the window
            LatticeOperator(value.grid, value.lattice, value.groups)
