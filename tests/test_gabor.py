import gc
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualframes import frames, gabor, io, oplin
from dualframes import (
    BadCoefficients,
    ContractViolation,
    FrameError,
    DimensionMismatch,
    Frame,
    GaborLattice,
    GridSpec,
    HypothesisViolated,
    LatticeMismatch,
    LatticeOperator,
    NotAFrame,
    NotApproxDual,
    NotCommuting,
    NotDualPair,
    OffGrid,
    SampledWindow,
    SupportOverflow,
    Singular,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    approx_dual_via_dual,
    approx_dual_window,
    approximation_rate,
    bessel_bound_difference,
    bspline_value,
    char_dual_check,
    ck_dual1,
    canonical_dual,
    ck_dual2,
    classify_pair,
    commutation_check,
    equivalence_inverse,
    frame_bounds,
    frame_operator,
    frame_operator_inv_sqrt,
    frame_operator_sqrt,
    gabor_frame,
    gdual_factorization,
    gdual_from_corresponding,
    identity,
    is_frame,
    janssen_residual,
    janssen_residual_table,
    mixed_lattice_operator,
    mixed_operator,
    operator_norm,
    painless_check,
    partition_of_unity_residual,
    random_annihilator,
    range_compare,
    reconstruct,
    recover_parameters,
    sample_bspline,
    sample_char,
    sample_function,
    scaled_gabor_operator,
    self_gdual_transfer,
    transfer_approx_dual,
    transfer_gdual,
    walnut_weight,
)
from dualframes.cli import main
from oracle import gabor_synthesis


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

    @pytest.mark.parametrize("order, grid", [(300, GridSpec(16, 300)), (2000, GridSpec(2, 2000))])
    def test_counts_that_overflow_a_float_raise(self, order, grid, monkeypatch):
        # s^(N - 1) overflows: ValueError before the first convolution, not OverflowError
        monkeypatch.setattr(np, "convolve", mock.Mock(side_effect=AssertionError("convolved")))
        with pytest.raises(ValueError, match=f"up to {grid.samples_per_unit}\\^{order - 1}, overflow"):
            sample_bspline(order, grid)

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
        # a Riemann sum: the integrand is zero at both ends
        assert np.sum(bspline_value(8, x)) * 1e-3 == pytest.approx(1.0, abs=1e-6)


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
        materialize = oplin.ClassFactor.synthesis

        def counted(system):
            built.append(system.shape)
            return materialize(system)

        monkeypatch.setattr(oplin.ClassFactor, "synthesis", counted)
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
    def test_one_frame_reads_one_svd_of_its_factor(self, grid, lat, sizes, monkeypatch):
        """The bounds, the frame test, S, the roots and the canonical dual of a system frame
        come from one batched thin SVD per class size: no eigh, eigvalsh or SVD of a matrix."""
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append((_name, a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        phi = gabor_frame(sample_bspline(3, grid), lat)
        frame_bounds(phi), is_frame(phi), frame_operator(phi), canonical_dual(phi)
        frame_bounds(phi), canonical_dual(phi), frame_operator_sqrt(phi), frame_operator_inv_sqrt(phi)
        monkeypatch.undo()
        groups = phi._system.groups
        assert [(name, a.ndim) for name, a in calls] == [("svd", 3)] * sizes == [("svd", 3)] * len(groups)
        assert all(a.size == factor.size for (_, a), (_, factor) in zip(calls, groups))  # (or its transpose)

    def test_reads_on_16_64_build_no_l_by_n_array(self, monkeypatch):
        """On 16:64 with b = 1/8 (L = 1024, N = 8192), the bounds, the frame test, the
        canonical dual, the roots and gdual_factorization build no synthesis matrix, take no
        SVD with N columns and no complex array of L N entries, and one batched thin SVD per
        system; the pair's singular values are a values-only SVD of its L x L blocks."""
        grid, lat = GridSpec(16, 64), GaborLattice(1, Fraction(1, 8))
        g = sample_bspline(2, grid)
        phi, psi = gabor_frame(g, lat), gabor_frame(ck_dual1(g, 2, lat.b), lat)
        shape = phi.dim, phi.count
        built, svds, peaks = [], [], []
        materialize, svd = oplin.ClassFactor.synthesis, np.linalg.svd
        monkeypatch.setattr(oplin.ClassFactor, "synthesis", lambda system: built.append(1) or materialize(system))

        def counted_svd(a, *args, compute_uv=True, **kwargs):
            svds.append((np.shape(a), compute_uv))
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        reads = (frame_bounds, is_frame, canonical_dual, frame_operator_sqrt, frame_operator_inv_sqrt,
                 lambda f: gdual_factorization(f, psi))
        tracemalloc.start()
        try:
            for read in reads:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                read(phi)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert built == []
        assert max(peaks) < 16 * shape[0] * shape[1]  # bytes of one complex L x N array
        batched = [np.prod(s) for s, vectors in svds if len(s) == 3 and vectors]  # the factor or its transpose
        assert batched == [system.groups[0][1].size for system in (phi._system, psi._system)]
        assert all(s[-1] < shape[1] for s, _ in svds)

    def test_pair_pipeline_on_16_32_builds_no_synthesis_matrix(self, monkeypatch):
        """Construct, classify, factorize, recover, rebuild and transfer on 16:32 system frames
        (L = 512) read factors and blocks only: no synthesis matrix of several classes is built,
        and no SVD of a matrix with L rows runs."""
        grid, lat = GridSpec(16, 32), GaborLattice(1, Fraction(1, 8))
        g = sample_bspline(2, grid)
        moved = SampledWindow(grid, g.values * (1.0 + 0.01 * np.cos(grid.points())))
        phi, dual, near = (gabor_frame(w, lat) for w in (g, ck_dual1(g, 2, lat.b), moved))
        materialize, svd, svds = oplin.ClassFactor.synthesis, np.linalg.svd, []

        def guarded(system):
            if system.modulations > 1:
                raise AssertionError(f"synthesis matrix of {system.modulations} modulations built")
            return materialize(system)

        def counted_svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(oplin.ClassFactor, "synthesis", guarded)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        theta = recover_parameters(phi, dual)[1]  # a factor of phi's classes
        phi_ad = approx_dual_from_whitened(phi, 1.05 * frame_operator_inv_sqrt(phi), theta)
        assert classify_pair(phi, phi_ad).kind == gdual_factorization(phi, phi_ad).kind == "approx"
        whitened, theta_back = recover_parameters(phi, phi_ad)
        again = approx_dual_from_whitened(phi, whitened, theta_back)
        result = transfer_approx_dual(phi, near, phi_ad)
        assert [shape for shape in svds if len(shape) == 2 and shape[0] == phi.dim] == []
        for f in (phi_ad, again, result.psi_dual):
            assert f._system.shares_classes(phi._system)
        assert np.max(np.abs(mixed_operator(phi, again) - mixed_operator(phi, phi_ad))) <= 1e-10
        assert result.mixed_match_residual <= 1e-9
        assert result.measured_diff_bound <= result.predicted_diff_bound

    def test_classify_pair_on_16_64_decomposes_blocks_only(self, monkeypatch):
        """The pair's rate and corresponding operator come from its L x L blocks: no SVD or
        inverse of a matrix with L rows; the rate (the largest ||I - block||) is one
        values-only SVD batched over the blocks, the corresponding operator one batched
        inverse, whose guard the Frobenius certificate decides for this exact dual pair,
        with no singular values."""
        grid, lat = GridSpec(16, 64), GaborLattice(1, Fraction(1, 8))
        g = sample_bspline(2, grid)
        phi, psi = gabor_frame(g, lat), gabor_frame(ck_dual1(g, 2, lat.b), lat)
        calls = []
        for name in ("svd", "inv"):
            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = classify_pair(phi, psi)
        monkeypatch.undo()
        assert report.kind == "dual" and report.corresponding_op.shape == (phi.dim, phi.dim)
        assert [call for call in calls if len(call[1]) == 2 and call[1][0] == phi.dim] == []
        assert sorted(name for name, _ in calls) == ["inv", "svd"]
        assert all(len(shape) == 3 and shape[0] * shape[1] == phi.dim for _, shape in calls)

    def test_pair_results_on_16_64_are_block_values(self, monkeypatch):
        """On 16:64 with b = 1/8 (L = 1024), classify_pair, gdual_factorization,
        recover_parameters, equivalence_inverse and the three transfers return each operator
        as a block value on the system's grid and lattice and build no L x L array: no block
        value is scattered, and no call's tracemalloc peak reaches one float64 L x L array.
        The whitened construction from the recovered parameters builds no synthesis matrix."""
        grid, lat = GridSpec(16, 64), GaborLattice(1, Fraction(1, 8))
        g = sample_bspline(2, grid)
        moved = SampledWindow(grid, g.values * (1.0 + 0.01 * np.cos(grid.points())))
        phi, dual, near = (gabor_frame(w, lat) for w in (g, ck_dual1(g, 2, lat.b), moved))
        canonical = canonical_dual(phi)
        scattered, peaks, results = [], [], []
        scatter, materialize = LatticeOperator.__array__, oplin.ClassFactor.synthesis
        monkeypatch.setattr(LatticeOperator, "__array__", lambda *args, **kw: scattered.append(1) or scatter(*args, **kw))

        def guarded(system):
            if system.modulations > 1:
                raise AssertionError(f"synthesis matrix of {system.modulations} modulations built")
            return materialize(system)

        monkeypatch.setattr(oplin.ClassFactor, "synthesis", guarded)
        reads = (lambda: classify_pair(phi, dual).corresponding_op,
                 lambda: gdual_factorization(phi, dual).whitened,
                 lambda: recover_parameters(phi, dual)[0],
                 lambda: equivalence_inverse(phi, canonical),
                 lambda: transfer_approx_dual(phi, near, dual).corrector,
                 lambda: transfer_gdual(phi, near, dual).corrector,
                 lambda: self_gdual_transfer(phi, near).corrector)
        tracemalloc.start()
        try:
            for read in reads:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                results.append(read())
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert scattered == []
        assert max(peaks) < 8 * phi.dim * phi.dim, peaks  # bytes of one float64 L x L array
        for value in results:
            assert isinstance(value, LatticeOperator) and value.shape == (phi.dim, phi.dim)
            assert (value.grid, value.lattice) == (phi._system.grid, phi._system.lattice)
        again = approx_dual_from_whitened(phi, *recover_parameters(phi, dual))
        assert again._system.shares_classes(phi._system) and scattered == []

    def test_empty_classes_are_never_enumerated(self):
        # M = s/b = 1e6 > L = 200: 200 classes hold a sample, the others are never listed
        g = sample_bspline(2, GridSpec(10, 20))
        tracemalloc.start()
        try:
            bounds = frame_bounds(gabor_frame(g, GaborLattice(1, Fraction(10, 10**6))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds.lower > 0.0 and peak < 1 << 20

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
            assert not left._system.shares_classes(right._system)
            assert approximation_rate(left, right) == approximation_rate(phi_d, dense)
            assert np.array_equal(mixed_operator(left, right), mixed_operator(phi_d, dense))

    def test_overflowing_blocks_raise(self):
        grid = GridSpec(4, 4)
        huge = SampledWindow(grid, sample_bspline(2, grid).values * 1e200)
        lat = GaborLattice(1, Fraction(1, 4))
        for read in (frame_bounds, frame_operator, lambda f: approximation_rate(f, f)):
            with pytest.raises(ValueError, match="non-finite"):
                read(gabor_frame(huge, lat))


def _near_singular_window(seed: int, eps: float) -> SampledWindow:
    """A random complex window on 4:6 with g(y + 12) = g(y) + eps noise at y = 0, 4, 8: on the
    lattice (1, 1/3) its classes 0, 4 and 8 are near-singular, kappa(S) about 2 / eps^2."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    for y in (0, 4, 8):
        v[y + 12] = v[y] + eps * (rng.standard_normal() + 1j * rng.standard_normal())
    return SampledWindow(GridSpec(4, 6), v)


_NEAR = GaborLattice(1, Fraction(1, 3))
# Criterion 10's Gaussian and lattice on 2:32 (L = 64, b P = 16/5): its samples at x = +-13.5
# stay subnormal.  Dense products and SVDs of its T take seconds, so it is one explicit example.
_GAUSSIAN = sample_function(lambda x: np.exp(-4.0 * x**2), GridSpec(2, 32), centered=True)
_SUBNORMAL_CASE = (_GAUSSIAN, sample_bspline(3, _GAUSSIAN.grid), GaborLattice(1, Fraction(1, 10)))


@st.composite
def _gabor_cases(draw):
    """A window g, a partner h and a lattice, L <= 36: random windows, each real or complex,
    with b P an integer or not and M > L (empty classes) on a = 1/2, 1 and 2, or near-singular
    classes with kappa(S) up to about 3e8, where the dense thin SVD still reads the canonical
    dual as "dual"."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        eps = 10 ** draw(st.floats(-3.8, -2))
        g, lat = _near_singular_window(draw(st.integers(0, 2**32 - 1)), eps), _NEAR
    else:
        s, period = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 3, 4, 6]))
        a = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
        assume((period / a).denominator == 1)
        lat = GaborLattice(a, Fraction(s, draw(st.integers(1, 3 * s * period))))  # M = s/b up to 3 L
        g = SampledWindow(GridSpec(s, period), _parts(draw) @ rng.standard_normal((2, s * period)))
    return g, SampledWindow(g.grid, _parts(draw) @ rng.standard_normal((2, g.grid.total))), lat


def _parts(draw) -> list:
    """The weights of a window's two draws: real and imaginary parts, or a real part alone."""
    return [1, 1j] if draw(st.booleans()) else [1.0, 0.0]


def _close(x, y, tol: float) -> bool:
    """||x - y|| <= tol ||y||, the norm the largest singular value."""
    return operator_norm(np.asarray(x) - np.asarray(y)) <= tol * operator_norm(y)


def _verdict(read):
    """``read()``, or the type of the FrameError it raises."""
    try:
        return read()
    except FrameError as exc:
        return type(exc)


class TestSystemOracle:
    """Every spectral read of a system frame against the same reads of ``Frame(T)``, with
    T built one shift at a time (``oracle.gabor_synthesis``), not from the class factor:
    values within the pinned tolerances, verdicts (kind, NotAFrame, Singular) equal.

    Two decompositions of one T agree to about eps kappa(T) relative in what S^{-1} or
    ker T enters, so those tolerances are the pinned ones widened to 50 eps kappa(T) where
    that is larger (kappa(T) up to about 1.4e4 here)."""

    @settings(max_examples=40, deadline=None)
    @given(case=_gabor_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=_SUBNORMAL_CASE, seed=1)
    def test_system_frame_reads_as_its_matrix(self, case, seed):
        g, h, lat = case
        t = gabor_synthesis(g, lat)
        phi, psi = gabor_frame(g, lat), gabor_frame(h, lat)
        dense, dense_psi = Frame(t), Frame(gabor_synthesis(h, lat))
        assert np.max(np.abs(phi.synthesis - t)) <= 1e-12 * np.max(np.abs(t))
        s = dense.spectrum.s
        kappa = s[0] / s[-1] if s[-1] > 0 else np.inf

        def tol(pinned: float) -> float:
            return max(pinned, 50 * np.finfo(float).eps * kappa)

        top = dense.eigenvalues[-1]
        assert np.max(np.abs(phi.eigenvalues - dense.eigenvalues)) <= 1e-12 * top
        assert np.max(np.abs(np.subtract(frame_bounds(phi), frame_bounds(dense)))) <= 1e-12 * top
        assert is_frame(phi) == is_frame(dense) and phi.spectrum.rank == dense.spectrum.rank
        assert _close(frame_operator_sqrt(phi), frame_operator_sqrt(dense), 1e-10)
        roots = [_verdict(lambda f=f: frame_operator_inv_sqrt(f)) for f in (phi, dense)]
        assert roots[0] is roots[1] is Singular or _close(*roots, tol(1e-10))
        theta = [random_annihilator(f, seed, 1.0).map for f in (phi, dense)]
        assert np.max(np.abs(theta[0] - theta[1])) <= tol(1e-9)
        duals = [_verdict(lambda f=f: canonical_dual(f)) for f in (phi, dense)]
        if duals[1] is NotAFrame:
            assert duals[0] is NotAFrame
            for read in (gdual_factorization, recover_parameters):
                for f, partner in ((phi, psi), (dense, dense_psi)):
                    with pytest.raises(NotAFrame):
                        read(f, partner)
            return
        assert _close(duals[0].synthesis, duals[1].synthesis, tol(1e-10))
        pairs = [classify_pair(f, dual) for f, dual in zip((phi, dense), duals)]
        assert pairs[0].kind == pairs[1].kind == "dual"
        assert _close(pairs[0].corresponding_op, pairs[1].corresponding_op, tol(1e-10))  # from the blocks
        reports = [gdual_factorization(phi, psi), gdual_factorization(dense, dense_psi)]
        assert reports[0].kind == reports[1].kind and abs(reports[0].rate - reports[1].rate) <= 1e-10
        assert reports[0].bessel_bound_ok == reports[1].bessel_bound_ok
        assert _close(reports[0].whitened, reports[1].whitened, tol(1e-9))
        target = 0.9 * np.eye(phi.dim)
        partner = approx_dual_from_mixed(dense, target, random_annihilator(dense, seed, 0.5))
        recovered = [recover_parameters(f, partner) for f in (phi, dense)]
        assert _close(recovered[0][0], recovered[1][0], tol(1e-9))
        theta_scale = max(1.0, np.max(np.abs(partner.synthesis)))  # ||partner|| grows with kappa(T)
        assert np.max(np.abs(recovered[0][1].map - recovered[1][1].map)) <= tol(1e-9) * theta_scale
        approx = [classify_pair(f, partner) for f in (phi, dense)]  # a system against a matrix: one block
        assert approx[0].kind == approx[1].kind == "approx"
        assert _close(approx[0].corresponding_op, approx[1].corresponding_op, tol(1e-10))

    @settings(max_examples=30, deadline=None)
    @given(case=_gabor_cases(), seed=st.integers(0, 2**32 - 1))
    def test_pair_functions_read_as_on_the_matrix(self, case, seed):
        """The constructions, the transfers and the other pair reads of system frames, on
        their classes, against the same reads of the dense ``Frame(T)``: the whitened one with
        a block operand and a theta recovered as a factor, the others with dense operands."""
        g, h, lat = case
        rng = np.random.default_rng(seed)
        moved = SampledWindow(g.grid, g.values * (1.0 + 0.01 * rng.standard_normal(g.grid.total)))
        systems = [gabor_frame(w, lat) for w in (g, h, moved)]
        dense = [Frame(gabor_synthesis(w, lat)) for w in (g, h, moved)]
        (phi, psi, near), (phi_d, psi_d, near_d) = systems, dense
        bessel = [bessel_bound_difference(a, b) for a, b in ((phi, psi), (phi_d, psi_d))]
        assert abs(bessel[0] - bessel[1]) <= 1e-12 * bessel[1]
        assert range_compare(phi, psi) is range_compare(phi_d, psi_d)
        if not is_frame(phi_d):
            for build in (approx_dual_from_whitened, gdual_from_corresponding):
                for f in (phi, phi_d):
                    with pytest.raises(NotAFrame):
                        build(f, np.eye(f.dim))
            return
        s = phi_d.spectrum.s
        tol = max(1e-9, 50 * np.finfo(float).eps * s[0] / s[-1])
        # kernel content of phi's classes: psi's projected off range(T*); an approximate dual
        # with it, and its theta recovered, a factor of phi's classes for the system
        pair = frames._pair(phi, psi)
        star = frames.Annihilator._over(pair.theta, phi, pair.theta_norm)
        kernel = [star, frames.Annihilator(map=star.map, base=phi_d)]
        partner = [approx_dual_from_mixed(f, 0.9 * np.eye(f.dim), k) for f, k in zip((phi, phi_d), kernel)]
        thetas = [recover_parameters(f, p)[1] for f, p in zip((phi, phi_d), partner)]
        assert thetas[0].star.shares_classes(phi._system)
        assert np.max(np.abs(thetas[0].map - thetas[1].map)) <= tol * max(1.0, np.max(np.abs(star.map)))
        w = 1.05 * frame_operator_inv_sqrt(phi)  # scattered from phi's blocks: zero between its classes
        built = [approx_dual_from_whitened(f, w, theta) for f, theta in zip((phi, phi_d), thetas)]
        assert built[0]._system.shares_classes(phi._system)  # built on the classes
        assert _close(built[0].synthesis, built[1].synthesis, tol)
        corresponding = 2.0 * np.eye(phi.dim) + 0.1 * mixed_operator(phi_d, psi_d) / operator_norm(mixed_operator(phi_d, psi_d))
        gduals = [gdual_from_corresponding(f, corresponding) for f in (phi, phi_d)]  # not zero between classes
        assert _close(gduals[0].synthesis, gduals[1].synthesis, tol)
        exact = [approx_dual_from_mixed(f, np.eye(f.dim), k) for f, k in zip((phi, phi_d), kernel)]
        vias = [approx_dual_via_dual(f, p, target=0.9 * np.eye(f.dim)) for f, p in zip((phi, phi_d), exact)]
        assert _close(vias[0].synthesis, vias[1].synthesis, tol)
        f = rng.standard_normal(phi.dim) + 1j * rng.standard_normal(phi.dim)
        rebuilt = [reconstruct(a, b, f) for a, b in zip((phi, phi_d), gduals)]
        assert np.linalg.norm(rebuilt[0] - rebuilt[1]) <= tol * np.linalg.norm(f)
        if not is_frame(near_d):
            return
        # a transfer reads S_psi^{-1} and the corrector's inverse: eps kappa(S) where that is larger
        tol_s = max(1e-9, 50 * np.finfo(float).eps * (s[0] / s[-1]) ** 2)
        transfers = (
            (transfer_approx_dual, built), (transfer_gdual, gduals), (lambda a, b, _: self_gdual_transfer(a, b), built))
        for transfer, partners in transfers:
            results = [_verdict(lambda a=a, b=b, p=p: transfer(a, b, p))
                       for a, b, p in zip((phi, phi_d), (near, near_d), partners)]
            if isinstance(results[1], type):
                assert results[0] is results[1]
                continue
            assert _close(results[0].psi_dual.synthesis, results[1].psi_dual.synthesis, tol_s)
            assert abs(results[0].predicted_diff_bound - results[1].predicted_diff_bound) <= (
                tol_s * results[1].predicted_diff_bound)
            assert results[0].mixed_match_residual <= 10 * results[1].mixed_match_residual + tol_s

    @pytest.mark.parametrize("eps", [7.35e-3, 5.27e-4, 4.08e-5])
    def test_near_singular_class_keeps_its_dual(self, eps):
        # a class factor's SVD carries kappa(T): the canonical dual stays an exact dual up to
        # kappa(S) = 1.2e9, where an eigh of the blocks, carrying kappa(S), read "approx"
        phi = gabor_frame(_near_singular_window(0, eps), _NEAR)
        kappa = phi.eigenvalues[-1] / phi.eigenvalues[0]
        assert 2e4 < kappa < 2e9
        report = classify_pair(phi, canonical_dual(phi))
        assert report.kind == "dual" and report.rate <= 1e-11


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
            assert np.max(np.abs(np.asarray(w_lazy) - w_dense)) <= 1e-12
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

    def test_failing_rate_of_a_large_window_is_reported_with_the_gap(self):
        """At g 1e8 and g_dual / 1e8 the exact-dual gate passes and ||Id - A|| = 0.5, but S
        grows as 1e16 and the pair built fails its rate; the error names both."""
        grid, lat = GridSpec(6, 6), GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, lat.b)
        large, small = SampledWindow(grid, b2.values * 1e8), SampledWindow(grid, dual.values / 1e8)
        with pytest.raises(ContractViolation, match=r"requires \|\|Id - A\|\| < 1: it is 0\.5, but the rate") as err:
            approx_dual_window(large, small, scaled_gabor_operator(b2, lat), lat)
        assert err.value.measured > 1.0

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

    @pytest.mark.parametrize("dense", [False, True], ids=["blocks", "array"])
    @pytest.mark.parametrize("grid, b", [(GridSpec(10, 20), Fraction(1, 10)), (GridSpec(6, 6), Fraction(1, 3))])
    def test_result_keeps_the_constructed_system(self, grid, b, dense, monkeypatch):
        # the frame of the result is the one the construction built and read the rate of:
        # the pair (g's system, it) takes no second blocks, and it is the window's own system
        lat = GaborLattice(1, b)
        b2 = sample_bspline(2, grid)
        dual = ck_dual1(b2, 2, b)
        a_op = scaled_gabor_operator(sample_bspline(3, grid), lat)
        blocks, build = [], oplin.ClassFactor.blocks
        monkeypatch.setattr(oplin.ClassFactor, "blocks", lambda f, other: blocks.append(other) or build(f, other))
        out = approx_dual_window(b2, dual, np.asarray(a_op) if dense else a_op, lat)
        built = len(blocks)
        constructed = gabor_frame(out, lat)
        assert any(other is constructed._system for other in blocks)
        approximation_rate(gabor_frame(b2, lat), constructed)
        mixed_lattice_operator(b2, out, lat)
        assert len(blocks) == built
        own = gabor._system(out, lat)
        assert constructed._system.shares_classes(own)
        for (index, factor), (own_index, own_factor) in zip(constructed._system.groups, own.groups):
            assert np.array_equal(index, own_index)
            assert np.max(np.abs(factor - own_factor)) <= 1e-12 * np.max(np.abs(own_factor))


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


class TestWindowDtypes:
    """A window's samples keep the narrowest exact dtype, float64 when no sample has an
    imaginary part, and everything built from a window follows numpy's promotion."""

    GRID, LAT = GridSpec(4, 8), GaborLattice(1, Fraction(1, 4))

    def _built(self, phase: complex) -> dict:
        """Every build from the B-spline pair of order 2 and the scaling window of order 3, each
        times ``phase``: the arrays whose dtype is the windows'."""
        grid, lat = self.GRID, self.LAT
        g, g_dual, scale = (SampledWindow(grid, w.values * phase) for w in (
            sample_bspline(2, grid), ck_dual1(sample_bspline(2, grid), 2, lat.b), sample_bspline(3, grid)))
        phi = gabor_frame(g, lat)
        op, mixed = scaled_gabor_operator(scale, lat), mixed_lattice_operator(g, g_dual, lat)
        return {
            "values": [g.values, g_dual.values, scale.values],
            "factor": [f for _, f in phi._system.groups],
            "spectrum": [x for _, u, _, vh in phi.spectrum.classes for x in (u, vh)],
            "scaled_gabor_operator": [b for _, b in op.groups] + [np.asarray(op), op.matrix],
            "mixed_lattice_operator": [b for _, b in mixed.groups] + [np.asarray(mixed)],
            "approx_dual_window": [approx_dual_window(g, g_dual, op, lat).values],
        }

    @pytest.mark.parametrize("phase, dtype", [(1.0, np.float64), (np.exp(0.3j), np.complex128)],
                             ids=["real", "complex"])
    def test_every_build_keeps_the_window_dtype(self, phase, dtype):
        for name, arrays in self._built(phase).items():
            assert [a.dtype for a in arrays] == [dtype] * len(arrays), name
        # ck_dual1 needs a window real to SUPPORT_TOL: complex samples within it stay complex
        g = sample_bspline(2, self.GRID)
        near = SampledWindow(self.GRID, g.values + (0.0 if dtype is np.float64 else 1e-14j))
        assert near.values.dtype == dtype and near.is_real
        assert ck_dual1(near, 2, self.LAT.b).values.dtype == dtype
        assert gabor_frame(g, self.LAT).spectrum.s.dtype == np.float64  # singular values are real

    def test_the_narrowest_exact_dtype(self, tmp_path):
        grid = GridSpec(1, 4)
        negative_zeros = [complex(x, -0.0) for x in range(4)]
        for values in ([0, 1, 2, 3], np.arange(4.0), np.arange(4.0) + 0j, negative_zeros):
            window = SampledWindow(grid, values)
            assert window.values.dtype == np.float64 and window.is_real
            assert np.array_equal(window.values, np.arange(4.0))
        assert SampledWindow(grid, [1, 2, 3, 4 + 1e-300j]).values.dtype == np.complex128
        assert not SampledWindow(grid, [1, 2, 3, 4 + 1j]).is_real
        assert sample_function(np.cos, grid).values.dtype == np.float64
        path = tmp_path / "w.json"
        io.save_window(sample_bspline(2, GridSpec(4, 4)), path)
        assert io.load_window(path).values.dtype == np.float64

    def test_mixed_dtypes_promote(self):
        grid, lat = self.GRID, self.LAT
        g, g_dual = sample_bspline(2, grid), ck_dual1(sample_bspline(2, grid), 2, lat.b)
        phi, op = gabor_frame(g, lat), scaled_gabor_operator(sample_bspline(3, grid), lat)
        # a complex dense operand gathered into a real system's classes
        tilt = (0.9 + 0.1j) * np.eye(grid.total)
        tilted = approx_dual_window(g, g_dual, tilt, lat)
        assert tilted.values.dtype == np.complex128
        assert _close(mixed_operator(phi, gabor_frame(tilted, lat)), tilt, 1e-12)
        # a real operand and system with a complex annihilator part, recovered from that pair
        _, theta = recover_parameters(phi, gabor_frame(tilted, lat))
        assert theta.star.groups[0][1].dtype == np.complex128
        built = approx_dual_from_mixed(phi, op, theta)
        assert built._system.groups[0][1].dtype == np.complex128
        assert _close(mixed_operator(phi, built), np.asarray(op), 1e-12)
        # a block value applied to a vector of the other dtype
        v = np.arange(grid.total, dtype=float)
        assert op.apply(v).dtype == np.float64
        assert op.apply(v + 1j).dtype == np.complex128
        tilted_op = mixed_lattice_operator(g, tilted, lat)
        assert tilted_op.apply(v).dtype == np.complex128
        assert np.allclose(tilted_op.apply(v), np.asarray(tilted_op) @ v, rtol=0, atol=1e-12)


class TestLatticeOperator:
    """scaled_gabor_operator's block value against the dense oracle."""

    @settings(max_examples=60, deadline=None)
    @given(case=_commensurate_lattices(), complex_values=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # a real system and operator meet the complex annihilator part of a densely solved dual
    @example(case=(GridSpec(2, 2), GaborLattice(2, Fraction(1, 2))), complex_values=False, seed=0)
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
        # the value approx_dual_window gathers is the one its construction reads
        with mock.patch.object(gabor, "_via_dual", side_effect=gabor._via_dual) as construct:
            approx_dual_window(g, g_dual, np.asarray(scaled), lat)
        gathered = construct.call_args.args[2]
        # built (value, its dense matrix): the mixed operator of two systems, a frame
        # operator over its upper bound, and a dense matrix gathered into g's classes
        frame_op = mixed_lattice_operator(g, g, lat)
        builds = [
            (mixed_lattice_operator(g, h, lat), mixed_operator(g_d, h_d)),
            (frame_op, s_dense),
            (scaled, frame_operator(scale_d) / frame_bounds(scale_d).upper),
            (gathered, np.asarray(scaled)),
        ]
        assert construct.call_count == 1 and gathered is not scaled
        assert np.array_equal(np.asarray(gathered), np.asarray(scaled))
        # the eigenvalues of a system frame, from one eigh of its blocks, against eigvalsh
        # of its dense S and of its frame-operator value; the scaling window's system is
        # the one scaled_gabor_operator built
        eigs = gabor_frame(g, lat).eigenvalues
        for eigenvalues, dense in (
            (eigs, s_dense),
            (eigs, np.asarray(frame_op)),
            (gabor_frame(scale, lat).eigenvalues, frame_operator(scale_d)),
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
        build = oplin.ClassFactor.blocks

        def counted(system, other):
            if other is system:
                built.append(system)  # kept alive, so every id is distinct
            return build(system, other)

        monkeypatch.setattr(oplin.ClassFactor, "blocks", counted)
        grid = GridSpec(6, 6)
        lat = GaborLattice(1, Fraction(1, 3))
        b2 = sample_bspline(2, grid)
        frame = gabor_frame(b2, lat)
        frame_bounds(frame)
        frame_operator(frame)
        frame_operator(frame)
        assert len(built) == 1
        scaled_gabor_operator(b2, lat)
        assert len(built) == 1
        painless_check(b2, lat, 2)
        assert len(built) == 1  # one system per window and lattice
        scaled_gabor_operator(SampledWindow(grid, b2.values), lat)
        assert len(built) == len({id(system) for system in built}) == 2  # another window: its own

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


class TestOneSystemPerWindow:
    @pytest.mark.parametrize("kind, census", [("10:20 pipeline", (4, 4, 4)), ("16:64 bounds", (2, 1, 2))])
    def test_gabor_dense_task_census(self, kind, census, monkeypatch):
        # one task as the benchmark's gabor-dense workload builds and runs it: the factors
        # built (the pipeline's three windows' systems, by the constructor, and g's canonical
        # dual, by its spectrum; the approximate dual's system is its construction's), the
        # class-block sets built (the
        # pipeline's S for the kernel term S T_d - T among them) and the SVDs taken: a thin
        # one per system read for its spectrum and a values-only one per block gap
        # ||Id - X|| (the pipeline's two rates, the bounds task's rate), each batched over
        # the classes; no eigh
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        task = next(task for task in workloads.build_gabor_dense(1, 1).tasks if task.kind == kind)
        systems, blocks, svds, eighs = [], [], [], []
        init, dual = oplin.ClassFactor.__init__, oplin.Spectrum.dual
        build, svd = oplin.ClassFactor.blocks, np.linalg.svd

        def counted(calls, fn):
            return lambda first, *args, **kwargs: calls.append(first) or fn(first, *args, **kwargs)

        monkeypatch.setattr(oplin.ClassFactor, "__init__", counted(systems, init))
        monkeypatch.setattr(oplin.Spectrum, "dual", counted(systems, dual))
        monkeypatch.setattr(oplin.ClassFactor, "blocks", counted(blocks, build))
        monkeypatch.setattr(np.linalg, "svd", counted(svds, svd))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(eighs, getattr(np.linalg, name)))
        task.run()
        assert (len(systems), len(blocks), len(svds)) == census and eighs == []
        assert {np.ndim(a) for a in svds} == {3}  # each SVD is batched over the classes

    def test_rounds_on_one_window_read_one_frame(self, monkeypatch):
        # the frame of a window and lattice is kept on the window, with every fact it keeps:
        # two rounds build the synthesis matrices of g and of its canonical dual once each,
        # and the blocks of the pair (g, h) once
        grid, lat = GridSpec(10, 20), GaborLattice(1, Fraction(1, 10))
        g = sample_bspline(2, grid)
        h = ck_dual1(g, 2, lat.b)
        built, blocks = [], []
        synthesis, build = oplin.ClassFactor.synthesis, oplin.ClassFactor.blocks
        monkeypatch.setattr(oplin.ClassFactor, "synthesis", lambda f: built.append(f) or synthesis(f))
        monkeypatch.setattr(oplin.ClassFactor, "blocks", lambda f, other: blocks.append(f) or build(f, other))
        for _ in range(2):
            canonical_dual(gabor_frame(g, lat)).synthesis
            approximation_rate(gabor_frame(g, lat), gabor_frame(h, lat))
            gabor_frame(g, lat).synthesis
        assert len(built) == 2 and len(blocks) == 1

    def test_window_values_are_a_read_only_copy(self):
        values = np.ones(4)
        window = SampledWindow(GridSpec(2, 2), values)
        with pytest.raises(ValueError):
            window.values[0] = 2.0
        values[0] = 2.0  # the caller's array stays writeable, and the window keeps its samples
        assert window.values[0] == 1.0

    def test_kept_system_dies_with_its_window(self):
        g = sample_bspline(2, GridSpec(6, 6))
        lat = GaborLattice(1, Fraction(1, 3))
        frame = gabor_frame(g, lat)
        assert gabor_frame(g, lat) is frame
        assert mixed_lattice_operator(g, g, lat) is frames._pair(frame, frame).mixed
        assert gabor_frame(g, GaborLattice(1, Fraction(1, 2))) is not frame
        kept = weakref.ref(frame)
        frame_bounds(gabor_frame(g, lat)), canonical_dual(frame)  # decomposes the factor
        del frame
        gc.disable()
        try:
            del g  # no reference cycle: the system goes with the window, without the collector
            assert kept() is None
        finally:
            gc.enable()


_G42 = sample_bspline(2, GridSpec(4, 2))
_G44 = sample_bspline(2, GridSpec(4, 4))
_LAT = GaborLattice(1, Fraction(1, 4))

# (raising function, error type, message, library call, CLI arguments or None, exit code)
TYPED_ERROR_SITES = {
    "non-rational input": ("as_fraction", OffGrid, "not a rational number",
                           lambda: gabor.as_fraction("x"), None, None),
    "wrong sample count": ("__post_init__", DimensionMismatch, "expected 3 samples, got 2",
                           lambda: SampledWindow(GridSpec(3, 1), np.ones(2)), None, None),
    "non-finite samples": ("__post_init__", ValueError, "non-finite samples",
                           lambda: SampledWindow(GridSpec(1, 2), np.array([np.nan, 0.0])),
                           ["gabor", "weight", "--window", "{nan_window}", "--a", "1"], 3),
    "P/a not an integer": ("shifts", LatticeMismatch, "is not a multiple of a",
                           lambda: walnut_weight(sample_bspline(2, GridSpec(4, 3)), 2),
                           ["gabor", "weight", "--window", "bspline:2", "--grid", "4:3", "--a", "2"], 2),
    "s/b not an integer": ("modulations", LatticeMismatch, "is not a multiple of b",
                           lambda: janssen_residual(_G42, _G42, GaborLattice(1, 3)),
                           ["gabor", "verify", "--window", "bspline:2", "--dual", "bspline:2", "--grid", "4:2",
                            "--a", "1", "--b", "3"], 2),
    "B-spline values of order 0": ("bspline_value", ValueError, "order must be >= 1",
                                   lambda: bspline_value(0, [0.5]), None, None),
    "B-spline window of order 0": ("sample_bspline", ValueError, "order must be >= 1",
                                   lambda: sample_bspline(0, GridSpec(4, 2)),
                                   ["gabor", "window", "--window", "bspline:0", "--grid", "4:2"], 3),
    "support past the period": ("_check_support", SupportOverflow, "exceeds the period",
                                lambda: ck_dual1(_G42, 3, Fraction(1, 5)),
                                ["gabor", "dual", "--window", "bspline:2", "--grid", "4:2", "--support", "3",
                                 "--b", "1/5"], 2),
    "commutation check of the wrong shape": ("commutation_check", DimensionMismatch, "operator must be 8x8",
                                             lambda: commutation_check(np.eye(3), _LAT, GridSpec(4, 2)),
                                             None, None),
    "mixed operator across grids": ("mixed_lattice_operator", DimensionMismatch, "different grids",
                                    lambda: gabor.mixed_lattice_operator(_G42, _G44, _LAT), None, None),
    "approximate dual across grids": ("approx_dual_window", DimensionMismatch, "different grids",
                                      lambda: approx_dual_window(_G42, _G44, np.eye(8), _LAT), None, None),
    "1/b past the float range": ("_system", ValueError, "too many to count in a float",
                                 lambda: gabor_frame(_G42, GaborLattice(1, Fraction(1, 10**400))),
                                 ["gabor", "approx-dual", "--window", "bspline:2", "--dual", "bspline:2",
                                  "--scale-window", "bspline:2", "--grid", "4:2", "--a", "1", "--b", "1e-400"], 3),
    "dual generator, b past the float range": ("_require_ck_window", HypothesisViolated, "requires b <= 1/3",
                                               lambda: ck_dual1(_G42, 2, 10**400), None, None),
    "painless, b past the float range": ("painless_check", HypothesisViolated, "requires b <= 1/2",
                                         lambda: painless_check(_G42, GaborLattice(1, 10**400), 2), None, None),
}


@pytest.mark.parametrize("site", TYPED_ERROR_SITES.values(), ids=TYPED_ERROR_SITES)
def test_typed_error_sites(site, tmp_path, capsys):
    function, error, message, call, argv, code = site
    with pytest.raises(error, match=message) as raised:
        call()
    assert raised.traceback[-1].name == function  # raised where it is checked
    if argv is not None:
        nan_window = tmp_path / "nan.json"
        nan_window.write_text('{"samples_per_unit": 1, "period": 2, "values": [[NaN, 0.0], [0.0, 0.0]]}')
        assert main([arg.format(nan_window=nan_window) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
