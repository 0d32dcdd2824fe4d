import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dualframes import (
    Annihilator,
    ContractViolation,
    DimensionMismatch,
    Frame,
    GaborLattice,
    GridSpec,
    NotAFrame,
    RangeRelation,
    SampledWindow,
    adjoint,
    analysis,
    approximation_rate,
    bessel_bound_difference,
    canonical_dual,
    classify_pair,
    frame_bounds,
    frame_operator,
    frame_operator_inv_sqrt,
    frame_operator_sqrt,
    gdual_factorization,
    identity,
    is_frame,
    is_riesz,
    mixed_operator,
    operator_norm,
    painless_check,
    random_annihilator,
    range_compare,
    reconstruct,
    sample_bspline,
    scaled_gabor_operator,
    synthesis,
    transfer_approx_dual,
)
from dualframes.frames import require_frame
from dualframes.oplin import ClassFactor

from conftest import random_frame, random_vector


def _overflowing_frame() -> Frame:
    # finite synthesis, but T T* has entries near 1e400
    return Frame([[1e200, 0, 1e200], [0, 1e200, 1]])


def _overflowing_window() -> SampledWindow:
    # a finite window whose Gabor frame operator has entries near 1e400
    grid = GridSpec(4, 4)
    return SampledWindow(grid, sample_bspline(2, grid).values * 1e200)


def outer_sum(frame: Frame) -> np.ndarray:
    """Independent frame-operator oracle: sum of rank-1 outer products."""
    total = np.zeros((frame.dim, frame.dim), dtype=complex)
    for k in range(frame.count):
        v = frame.vector(k)
        total += np.outer(v, v.conj())
    return total


class TestAnalysisSynthesis:
    def test_analysis_inner_products(self, phi0):
        assert np.allclose(analysis(phi0, [1, 2]), [1, 2, 3])

    def test_analysis_zero(self, phi0):
        assert np.allclose(analysis(phi0, [0, 0]), 0)

    def test_analysis_orthonormal_coordinates(self, ortho2):
        rng = np.random.default_rng(0)
        f = random_vector(2, rng)
        assert np.allclose(analysis(ortho2, f), f)

    def test_analysis_shape_guard(self, phi0):
        with pytest.raises(DimensionMismatch):
            analysis(phi0, [1, 2, 3])

    def test_synthesis_combination(self, phi0):
        assert np.allclose(synthesis(phi0, [1, 1, 0]), [1, 1])

    def test_synthesis_kernel_vector(self, phi0):
        # (1, 1, -1) lies in the kernel: 1*(1,0) + 1*(0,1) - 1*(1,1) = 0
        assert np.allclose(synthesis(phi0, [1, 1, -1]), [0, 0])

    def test_synthesis_canonical_basis(self, phi0):
        for k in range(3):
            c = np.zeros(3)
            c[k] = 1
            assert np.allclose(synthesis(phi0, c), phi0.vector(k))

    def test_synthesis_shape_guard(self, phi0):
        with pytest.raises(DimensionMismatch):
            synthesis(phi0, [1, 2])

    @pytest.mark.parametrize("call, what", [
        (lambda phi, bad: analysis(phi, [bad, 0]), "vector"),
        (lambda phi, bad: synthesis(phi, [bad, 0, 0]), "coefficient"),
        (lambda phi, bad: reconstruct(phi, canonical_dual(phi), [bad, 0]), "vector"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_raises(self, phi0, call, what, bad):
        with pytest.raises(ValueError, match=f"{what} has non-finite entries"):
            call(phi0, bad)

    def test_adjoint_relation(self):
        rng = np.random.default_rng(1)
        phi = random_frame(5, 9, seed=2)
        for _ in range(20):
            f = random_vector(5, rng)
            c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            lhs = np.vdot(f, synthesis(phi, c))
            rhs = np.vdot(analysis(phi, f), c)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestFrameOperator:
    def test_phi0(self, phi0):
        assert np.allclose(frame_operator(phi0), [[2, 1], [1, 2]])
        assert np.allclose(frame_operator(phi0), outer_sum(phi0))

    def test_phi1(self, phi1):
        assert np.allclose(frame_operator(phi1), np.diag([2.0, 1.0]))
        assert np.allclose(frame_operator(phi1), outer_sum(phi1))

    def test_orthonormal(self, ortho2):
        assert np.allclose(frame_operator(ortho2), identity(2))

    def test_equals_synthesis_after_analysis(self):
        phi = random_frame(4, 7, seed=3)
        s = frame_operator(phi)
        assert np.array_equal(s, phi.synthesis @ adjoint(phi.synthesis))
        assert operator_norm(s - adjoint(s)) <= 1e-12 * operator_norm(s)


class TestFrameBounds:
    def test_phi0(self, phi0):
        lower, upper = frame_bounds(phi0)
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(3.0, abs=1e-12)

    def test_phi1(self, phi1):
        assert frame_bounds(phi1) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_orthonormal_tight(self, ortho2):
        assert frame_bounds(ortho2) == pytest.approx((1.0, 1.0))

    def test_bessel_only_lower_zero(self):
        bessel = Frame.from_vectors([(1, 0), (2, 0), (0, 0)])
        bounds = frame_bounds(bessel)
        assert bounds.lower == 0.0
        assert bounds.upper == pytest.approx(5.0)
        assert not is_frame(bessel)

    def test_energy_sandwich(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            phi = random_frame(6, 10, seed=100 + seed)
            lower, upper = frame_bounds(phi)
            for _ in range(100):
                f = random_vector(6, rng)
                energy = float(np.linalg.norm(analysis(phi, f)) ** 2)
                norm2 = float(np.linalg.norm(f) ** 2)
                assert lower * norm2 - 1e-9 <= energy <= upper * norm2 + 1e-9

    @pytest.mark.parametrize(
        "fact",
        [
            pytest.param(lambda: frame_bounds(_overflowing_frame()), id="frame_bounds"),
            pytest.param(lambda: canonical_dual(_overflowing_frame()), id="canonical_dual"),
            pytest.param(
                lambda: scaled_gabor_operator(_overflowing_window(), GaborLattice(1, Fraction(1, 4))),
                id="scaled_gabor_operator",
            ),
        ],
    )
    def test_overflowing_frame_operator_raises(self, fact):
        with pytest.raises(ValueError, match="non-finite"):
            fact()

    def test_overflowing_frame_keeps_the_facts_its_svd_gives(self):
        # S overflows, but the frame test, the analysis range, the roots and ker T
        # are read from the SVD of T, which fits
        huge = _overflowing_frame()
        assert is_frame(huge)
        assert range_compare(huge, Frame(huge.synthesis * 2.0)) is RangeRelation.EQUAL
        unit = Frame(huge.synthesis * 1e-200)
        assert np.allclose(frame_operator_sqrt(huge) * 1e-200, frame_operator_sqrt(unit), rtol=0, atol=1e-14)
        assert np.allclose(frame_operator_inv_sqrt(huge) * 1e200, frame_operator_inv_sqrt(unit), rtol=0, atol=1e-14)
        theta = random_annihilator(huge, seed=1, scale=1.0)
        assert theta.norm == pytest.approx(1.0)
        assert operator_norm(huge.synthesis @ theta.map) <= 1e-14 * 1e200

    def test_tiny_frame_is_a_frame_whose_bounds_do_not_fit(self):
        # singular values (sqrt(3), 1) * 1e-170; the bounds 3e-340 and 1e-340 are subnormal
        unit = Frame([[1, 0, 1], [0, 1, 1]])
        tiny = Frame(unit.synthesis * 1e-170)
        require_frame(tiny, "tiny")
        assert is_frame(tiny)
        dual = canonical_dual(tiny)
        assert np.allclose(dual.synthesis * 1e-170, canonical_dual(unit).synthesis, rtol=1e-14, atol=0)
        assert classify_pair(tiny, dual).kind == "dual"
        for _ in range(2):
            with pytest.raises(ValueError, match="not a normal float"):
                frame_bounds(tiny)

    # at 1e-170 the squares underflow to 0, at 1e-160 to the subnormals 1e-320 and 3e-320
    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_eigenvalues_raise_exactly_when_the_bounds_do(self, scale):
        tiny = Frame(np.array([[1, 0, 1], [0, 1, 1]]) * scale)
        for read in (frame_bounds, lambda phi: phi.eigenvalues):
            with pytest.raises(ValueError) as err:
                read(tiny)
            assert str(err.value) == f"frame bound {scale:.3e}^2 is not a normal float"
        assert canonical_dual(tiny).count == 3  # the dual is refused only when S overflows

    def test_a_bessel_familys_underflowing_eigenvalue_reads_zero(self):
        bessel = Frame([[1, 0, 1], [0, 1e-170, 0]])
        assert bessel.eigenvalues[0] == 0.0 and bessel.eigenvalues[1] == pytest.approx(2.0)
        assert frame_bounds(bessel) == (0.0, bessel.eigenvalues[1])

    def test_frame_whose_inverse_does_not_fit_raises(self):
        # singular values (sqrt(3), 1) * 1e-310: a frame, but 1/s overflows, so S^{-1/2} and
        # the canonical dual S^{-1} T do not fit a float
        tiny = Frame(np.array([[1, 0, 1], [0, 1, 1]]) * 1e-310)
        assert is_frame(tiny)
        for read in (canonical_dual, frame_operator_inv_sqrt):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                read(tiny)

    # |k| = 500 takes the entries past 2^459, where LAPACK rescales the matrix inside the SVD
    @pytest.mark.parametrize("k", [-500, -200, 0, 200, 500])
    def test_bounds_scale_by_exactly_4_to_the_k(self, phi0, k):
        bounds = frame_bounds(Frame(phi0.synthesis * 2.0**k))
        assert bounds == tuple(b * 4.0**k for b in frame_bounds(phi0))


class TestCanonicalDual:
    def test_orthonormal_fixed_point(self, ortho2):
        assert np.allclose(canonical_dual(ortho2).synthesis, ortho2.synthesis)

    def test_phi1_columnwise(self, phi1):
        expected = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(canonical_dual(phi1).synthesis, expected)

    def test_phi0_closed_form(self, phi0):
        # S^{-1} = (1/3) [[2,-1],[-1,2]] applied columnwise
        expected = np.array([[2 / 3, -1 / 3, 1 / 3], [-1 / 3, 2 / 3, 1 / 3]])
        assert np.allclose(canonical_dual(phi0).synthesis, expected, atol=1e-12)

    def test_mixed_operator_is_identity(self):
        phi = random_frame(5, 8, seed=5)
        assert operator_norm(mixed_operator(phi, canonical_dual(phi)) - identity(5)) <= 1e-10

    def test_involution(self):
        phi = random_frame(5, 8, seed=6)
        again = canonical_dual(canonical_dual(phi))
        assert operator_norm(again.synthesis - phi.synthesis) <= 1e-9 * operator_norm(
            phi.synthesis
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        phi = random_frame(6, 11, seed=8)
        dual = canonical_dual(phi)
        for _ in range(20):
            f = random_vector(6, rng)
            rec = synthesis(phi, analysis(dual, f))
            assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)

    def test_rejects_non_frame(self):
        with pytest.raises(NotAFrame):
            canonical_dual(Frame.from_vectors([(1, 0), (2, 0)]))


class TestMixedOperator:
    def test_self_pair_gives_frame_operator(self, phi0):
        assert np.allclose(mixed_operator(phi0, phi0), frame_operator(phi0))

    def test_columnwise_scaling(self, phi1):
        half = Frame(phi1.synthesis * 0.5)
        assert np.allclose(mixed_operator(phi1, half), np.diag([1.0, 0.5]))

    def test_adjoint_swaps_arguments(self):
        phi = random_frame(4, 6, seed=9)
        psi = random_frame(4, 6, seed=10)
        assert np.allclose(adjoint(mixed_operator(phi, psi)), mixed_operator(psi, phi))

    def test_shape_guard(self, phi0, ortho2):
        with pytest.raises(DimensionMismatch):
            mixed_operator(phi0, ortho2)


class TestApproximationRate:
    def test_canonical_dual_rate_zero(self, phi0):
        assert approximation_rate(phi0, canonical_dual(phi0)) <= 1e-12

    def test_self_pair_boundary(self, phi1):
        assert approximation_rate(phi1, phi1) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_canonical(self, phi1):
        scaled = Frame(canonical_dual(phi1).synthesis * 0.9)
        assert approximation_rate(phi1, scaled) == pytest.approx(0.1, abs=1e-12)


class TestRiesz:
    def test_orthonormal(self, ortho2):
        assert is_riesz(ortho2)

    def test_overcomplete(self, phi0):
        assert not is_riesz(phi0)

    def test_scaled_basis(self):
        assert is_riesz(Frame.from_vectors([(1, 0), (0, 2)]))


class TestBesselBoundDifference:
    def test_zero_for_equal(self, phi0):
        assert bessel_bound_difference(phi0, phi0) == 0.0

    def test_rank_one_difference(self, phi0):
        eps = 1e-3
        psi = Frame.from_vectors([(1, 0), (0, 1), (1, 1 + eps)])
        assert bessel_bound_difference(phi0, psi) == pytest.approx(eps**2, rel=1e-10)

    def test_scaling(self, phi0):
        doubled = Frame(phi0.synthesis * 2.0)
        assert bessel_bound_difference(phi0, doubled) == pytest.approx(
            frame_bounds(phi0).upper, abs=1e-12
        )


class TestAnnihilator:
    def test_riesz_kernel_trivial(self, ortho2):
        theta = random_annihilator(ortho2, seed=1, scale=1.0)
        assert operator_norm(theta.map) == 0.0

    def test_phi0_kernel_direction(self, phi0):
        theta = random_annihilator(phi0, seed=2, scale=1.0)
        assert theta.norm == pytest.approx(1.0, abs=1e-12)
        # every column is a multiple of the kernel direction (1, 1, -1)
        k = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        proj = np.outer(k, k.conj())
        assert operator_norm(theta.map - proj @ theta.map) <= 1e-12

    def test_scale_zero(self, phi0):
        assert random_annihilator(phi0, seed=3, scale=0.0).norm == 0.0

    @pytest.mark.parametrize("scale", [-0.5, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_scale(self, phi0, scale):
        with pytest.raises(ValueError, match="scale"):
            random_annihilator(phi0, seed=3, scale=scale)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 3e-310, 5e-324, 1e300])
    def test_carried_norm_is_the_maps(self, scale, monkeypatch):
        """The norm scaled to is carried where the product keeps 1e-12 relative accuracy
        and measured where underflow would lose it (a subnormal scale)."""
        from dualframes import frames

        phi = random_frame(5, 9, seed=31)
        measured = []
        monkeypatch.setattr(frames, "operator_norm", lambda m: measured.append(m) or operator_norm(m))
        theta = random_annihilator(phi, seed=6, scale=scale)
        exact = float(np.linalg.norm(theta.map, 2))
        assert abs(theta.norm - exact) <= 1e-12 * exact
        # the draw's norm, and the scaled map's only below the normal range
        assert len(measured) == (1 if scale >= 1e-300 else 2)

    def test_public_constructor_takes_no_norm(self, phi0):
        with pytest.raises(TypeError):
            Annihilator(map=np.zeros((3, 2)), base=phi0, norm=1.0)

    def test_deterministic(self, phi0):
        a = random_annihilator(phi0, seed=4, scale=0.5)
        b = random_annihilator(phi0, seed=4, scale=0.5)
        assert np.array_equal(a.map, b.map)

    def test_invariant_holds_on_random_frames(self):
        for seed in range(10):
            phi = random_frame(5, 9, seed=200 + seed)
            theta = random_annihilator(phi, seed=seed, scale=2.0)
            assert (
                operator_norm(phi.synthesis @ theta.map)
                <= 1e-10 * operator_norm(phi.synthesis) * theta.norm
            )

    def test_rejects_non_kernel_map(self, phi0):
        theta = np.ones((3, 2))
        with pytest.raises(ContractViolation) as info:
            Annihilator(map=theta, base=phi0)
        assert info.value.measured == pytest.approx(operator_norm(phi0.synthesis @ theta))

    def test_rejects_wrong_shape(self, phi0):
        with pytest.raises(DimensionMismatch):
            Annihilator(map=np.zeros((2, 3)), base=phi0)

    def test_kernel_basis_dimension(self, phi0):
        """The projection onto ker T is a Hermitian idempotent of rank n - rank,
        the rank counting singular values above s_max * eps * max(d, n)."""
        family = Frame.from_vectors([(1, 0), (2, 0), (0, 0)])
        for phi, rank in ((phi0, 2), (family, 1), (Frame(np.zeros((2, 3))), 0)):
            assert phi.spectrum.rank == rank
            p = phi.spectrum.kernel_part(ClassFactor.of(np.eye(3, dtype=complex))).synthesis()
            assert np.allclose(p @ p, p, atol=1e-14) and np.allclose(p, adjoint(p), atol=1e-14)
            assert np.trace(p).real == pytest.approx(3 - rank, abs=1e-14)
            assert np.allclose(phi.synthesis @ p, 0.0, atol=1e-14)
        eye = ClassFactor.of(np.eye(3))
        assert np.array_equal(Frame(np.zeros((2, 3))).spectrum.kernel_part(eye).synthesis(), np.eye(3))


def _array_holders() -> dict:
    """An instance of each result type that holds arrays, and the name of one array field."""
    phi = Frame.from_vectors([(1, 0), (0, 1), (1, 1)])
    dual = canonical_dual(phi)
    g = sample_bspline(2, GridSpec(4, 4))
    return {
        "SampledWindow": (g, "values"),
        "Annihilator": (random_annihilator(phi, 1, 0.5), "map"),
        "DualReport": (gdual_factorization(phi, dual), "corresponding_op"),
        "PainlessReport": (painless_check(g, GaborLattice(1, Fraction(1, 2)), 2), "diagonal"),
        "Spectrum": (phi.spectrum, "s"),
        "TransferResult": (transfer_approx_dual(phi, Frame(np.array(phi.synthesis) + 1e-3), dual), "corrector"),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity(name):
    value, field = _array_holders()[name]
    other = dataclasses.replace(value, **{field: np.array(getattr(value, field))})  # equal arrays, distinct objects
    assert value == value and not value != value
    assert value != other and not value == other  # no "truth value of an array is ambiguous"
