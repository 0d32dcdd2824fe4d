import re

import numpy as np
import pytest

from dualframes import duality
from dualframes import (
    ContractViolation,
    DimensionMismatch,
    Frame,
    FrameBounds,
    NotAFrame,
    NotApproxDual,
    NotDualPair,
    NotEquivalent,
    RangeRelation,
    Singular,
    adjoint,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    approx_dual_via_dual,
    approximation_rate,
    canonical_dual,
    classify_pair,
    equivalence_inverse,
    frame_bounds,
    frame_operator,
    gdual_factorization,
    gdual_from_corresponding,
    identity,
    inverse,
    mixed_operator,
    operator_norm,
    random_annihilator,
    range_compare,
    reconstruct,
    recover_parameters,
    whitened_admissibility,
)

from conftest import random_frame, random_vector
from oracle import psd_inv_sqrt, psd_sqrt


def admissible_whitened(phi: Frame, seed: int, size: float = 0.1) -> np.ndarray:
    """A whitened factor within the strict-contraction region of phi."""
    rng = np.random.default_rng(seed)
    d = phi.dim
    bump = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    bump *= size / (operator_norm(bump) * np.sqrt(frame_bounds(phi).upper))
    return psd_inv_sqrt(frame_operator(phi)) + bump


class TestClassify:
    def test_canonical_pair(self, phi0):
        report = classify_pair(phi0, canonical_dual(phi0))
        assert report.kind == "dual"
        assert report.is_dual and report.is_approx_dual and report.is_gdual
        assert np.allclose(report.corresponding_op, identity(2), atol=1e-10)

    def test_self_pair_is_gdual_only(self, phi1):
        report = classify_pair(phi1, phi1)
        assert report.kind == "gdual"
        assert not report.is_dual and not report.is_approx_dual and report.is_gdual
        assert report.rate == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(report.corresponding_op, np.diag([0.5, 1.0]))

    def test_singular_mixed_is_none(self, ortho2):
        psi = Frame.from_vectors([(1, 0), (0, 0)])
        report = classify_pair(ortho2, psi)
        assert report.kind == "none"
        assert not report.is_gdual
        assert report.corresponding_op is None

    def test_corresponding_operator_is_reproducible(self):
        phi = random_frame(5, 8, seed=20)
        psi = random_frame(5, 8, seed=21)
        a1 = classify_pair(phi, psi).corresponding_op
        a2 = inverse(mixed_operator(phi, psi))
        assert operator_norm(a1 - a2) <= 1e-10 * operator_norm(a1)


class TestFactorization:
    def test_canonical_dual_factor(self, phi0):
        report = gdual_factorization(phi0, canonical_dual(phi0))
        assert report.kind == "dual"
        assert np.allclose(report.whitened, psd_inv_sqrt(frame_operator(phi0)), atol=1e-10)
        assert report.factor_residual <= 1e-12
        # lambda_max(W W*) = 1/lower == upper bound of the canonical dual
        gram_peak = np.linalg.eigvalsh(report.whitened @ adjoint(report.whitened))[-1]
        assert gram_peak == pytest.approx(1.0 / frame_bounds(phi0).lower, rel=1e-10)
        assert report.bessel_bound_ok
        assert report.bessel_margin == pytest.approx(0.0, abs=1e-9)

    def test_self_pair_factor(self, phi0):
        report = gdual_factorization(phi0, phi0)
        assert np.allclose(report.whitened, psd_sqrt(frame_operator(phi0)), atol=1e-10)
        assert report.bessel_bound_ok
        assert report.bessel_margin == pytest.approx(0.0, abs=1e-9)

    def test_rank_deficient_partner(self, ortho2):
        report = gdual_factorization(ortho2, Frame.from_vectors([(1, 0), (0, 0)]))
        assert report.kind == "none"

    def test_requires_first_frame(self, ortho2):
        with pytest.raises(NotAFrame):
            gdual_factorization(Frame.from_vectors([(1, 0), (0, 0)]), ortho2)

    def test_approx_criterion_boundary(self, phi1):
        report = gdual_factorization(phi1, phi1)
        assert not report.is_approx_dual  # rate exactly 1 is rejected
        assert report.rate == pytest.approx(1.0, abs=1e-12)

    def test_scaled_canonical_rate(self, phi1):
        half = Frame(canonical_dual(phi1).synthesis * 0.5)
        report = gdual_factorization(phi1, half)
        assert report.is_approx_dual
        assert report.rate == pytest.approx(0.5, abs=1e-12)

    def test_rate_matches_whitened_gap(self):
        phi = random_frame(5, 8, seed=22)
        psi = random_frame(5, 8, seed=23)
        report = gdual_factorization(phi, psi)
        gap = operator_norm(
            identity(5) - psd_sqrt(frame_operator(phi)) @ report.whitened
        )
        assert abs(gap - report.rate) <= 1e-10

    def test_bessel_check_holds_for_random_frame_pairs(self):
        for seed in range(10):
            phi = random_frame(4, 7, seed=300 + seed)
            psi = random_frame(4, 7, seed=400 + seed)
            assert gdual_factorization(phi, psi).bessel_bound_ok

    def test_bessel_check_holds_for_canonical_pairs_at_small_scale(self):
        # the canonical dual's bound is about 1e10 here, so its rounding exceeds any absolute slack
        for seed in range(50):
            phi = Frame(random_frame(8, 12, seed=500 + seed).synthesis * 1e-5)
            assert gdual_factorization(phi, canonical_dual(phi)).bessel_bound_ok

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_bessel_excess_of_1e_6_is_rejected_at_every_scale(self, scale, monkeypatch):
        # lambda_max(W W*) <= upper(psi) is a theorem for a genuine pair, so the excess is
        # made by lowering the bound of psi that the check reads by 1e-6 relative
        phi = Frame(random_frame(8, 12, seed=600).synthesis * scale)
        psi = canonical_dual(phi)
        lower, upper = frame_bounds(psi)
        assert gdual_factorization(phi, psi).bessel_bound_ok
        monkeypatch.setattr(duality, "frame_bounds", lambda f: FrameBounds(lower, upper * (1 - 1e-6)))
        assert not gdual_factorization(phi, psi).bessel_bound_ok


class TestApproxDualFromWhitened:
    def test_canonical_special_case(self, phi0):
        w = psd_inv_sqrt(frame_operator(phi0))
        result = approx_dual_from_whitened(phi0, w)
        assert np.allclose(result.synthesis, canonical_dual(phi0).synthesis, atol=1e-10)

    def test_kernel_content_is_invisible(self, phi0):
        w = psd_inv_sqrt(frame_operator(phi0))
        theta = random_annihilator(phi0, seed=1, scale=1.0)
        result = approx_dual_from_whitened(phi0, w, theta)
        assert operator_norm(mixed_operator(phi0, result) - identity(2)) <= 1e-10
        assert not np.allclose(result.synthesis, canonical_dual(phi0).synthesis)

    def test_scalar_shrink(self, phi0):
        w = 0.9 * psd_inv_sqrt(frame_operator(phi0))
        result = approx_dual_from_whitened(phi0, w)
        assert operator_norm(mixed_operator(phi0, result) - 0.9 * identity(2)) <= 1e-10
        assert approximation_rate(phi0, result) == pytest.approx(0.1, abs=1e-10)

    def test_mixed_operator_contract(self):
        phi = random_frame(6, 9, seed=24)
        w = admissible_whitened(phi, seed=25)
        theta = random_annihilator(phi, seed=26, scale=0.5)
        result = approx_dual_from_whitened(phi, w, theta)
        target = psd_sqrt(frame_operator(phi)) @ w
        assert operator_norm(mixed_operator(phi, result) - target) <= 1e-10

    def test_bessel_bound_estimate(self):
        phi = random_frame(6, 9, seed=27)
        w = admissible_whitened(phi, seed=28)
        theta = random_annihilator(phi, seed=29, scale=0.7)
        result = approx_dual_from_whitened(phi, w, theta)
        measured = frame_bounds(result).upper
        assert measured <= (operator_norm(w) + theta.norm) ** 2 + 1e-9

    def test_rejects_expansive_factor(self, phi0):
        with pytest.raises(ContractViolation) as err:
            approx_dual_from_whitened(phi0, 3.0 * psd_inv_sqrt(frame_operator(phi0)))
        assert err.value.measured == pytest.approx(2.0, abs=1e-9)

    def test_rejects_foreign_annihilator(self, phi0, phi1):
        theta = random_annihilator(phi1, seed=1, scale=0.5)
        with pytest.raises(Exception):
            approx_dual_from_whitened(phi0, psd_inv_sqrt(frame_operator(phi0)), theta)


class TestWhitenedAdmissibility:
    def test_exact_inverse_root(self, phi0):
        check = whitened_admissibility(phi0, psd_inv_sqrt(frame_operator(phi0)))
        assert check.admissible
        assert check.distance == pytest.approx(0.0, abs=1e-12)
        assert check.implied_rate_bound == pytest.approx(0.0, abs=1e-12)

    def test_within_threshold(self, phi1):
        w = psd_inv_sqrt(frame_operator(phi1)) + 0.5 * identity(2)
        check = whitened_admissibility(phi1, w)
        assert check.threshold == pytest.approx(1.0 / np.sqrt(2.0))
        assert check.distance == pytest.approx(0.5)
        assert check.admissible

    def test_outside_threshold(self, phi1):
        w = psd_inv_sqrt(frame_operator(phi1)) + identity(2)
        check = whitened_admissibility(phi1, w)
        assert check.distance == pytest.approx(1.0)
        assert not check.admissible

    def test_implied_bound_dominates_rate(self):
        for seed in range(10):
            phi = random_frame(5, 8, seed=500 + seed)
            w = admissible_whitened(phi, seed=600 + seed, size=0.3)
            check = whitened_admissibility(phi, w)
            assert check.admissible
            rate = approximation_rate(phi, approx_dual_from_whitened(phi, w))
            assert rate <= check.implied_rate_bound + 1e-10


class TestApproxDualFromMixed:
    def test_identity_target(self, phi0):
        result = approx_dual_from_mixed(phi0, identity(2))
        assert np.allclose(result.synthesis, canonical_dual(phi0).synthesis, atol=1e-12)

    def test_scalar_target(self, phi0):
        result = approx_dual_from_mixed(phi0, 0.8 * identity(2))
        assert np.allclose(result.synthesis, 0.8 * canonical_dual(phi0).synthesis, atol=1e-12)
        assert approximation_rate(phi0, result) == pytest.approx(0.2, abs=1e-12)

    def test_prescribed_mixed_operator(self, phi0):
        target = identity(2) - 0.3 * np.array([[0.0, 1.0], [0.0, 0.0]])
        theta = random_annihilator(phi0, seed=5, scale=0.4)
        result = approx_dual_from_mixed(phi0, target, theta)
        assert operator_norm(mixed_operator(phi0, result) - target) <= 1e-10

    def test_rejects_distant_target(self, phi0):
        with pytest.raises(ContractViolation):
            approx_dual_from_mixed(phi0, 2.5 * identity(2))

    # a 1x1 target once broadcast against the 2x2 identity; a 3x3 one would reach the rate check
    @pytest.mark.parametrize("target", [[[0.9]], 0.9 * identity(3), 3.0 * identity(3), 0.9 * identity(2)[:, :1]])
    def test_rejects_target_of_another_size(self, phi0, target):
        with pytest.raises(DimensionMismatch, match="target must be 2x2"):
            approx_dual_from_mixed(phi0, target)


# operators of another size once escaped as numpy's matmul error, or were
# broadcast into a verdict or a measured rate
@pytest.mark.parametrize(
    "build, operand, message",
    [
        (gdual_from_corresponding, identity(3), "corresponding must be 2x2, got (3, 3)"),
        (whitened_admissibility, [[0.6, 0.1]], "whitened must be 2x2, got (1, 2)"),
        (approx_dual_from_whitened, [[0.6], [0.5]], "whitened must be 2x2, got (2, 1)"),
    ],
)
def test_rejects_operand_of_another_size(phi0, build, operand, message):
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        build(phi0, operand)


class TestRecoverParameters:
    def test_canonical_pair(self, phi0):
        w, theta = recover_parameters(phi0, canonical_dual(phi0))
        assert np.allclose(w, psd_inv_sqrt(frame_operator(phi0)), atol=1e-10)
        assert theta.norm <= 1e-12

    def test_roundtrip(self):
        for seed in range(10):
            phi = random_frame(5, 8, seed=700 + seed)
            w = admissible_whitened(phi, seed=800 + seed, size=0.2)
            theta = random_annihilator(phi, seed=900 + seed, scale=0.6)
            built = approx_dual_from_whitened(phi, w, theta)
            w2, theta2 = recover_parameters(phi, built)
            assert operator_norm(w - w2) <= 1e-9
            assert operator_norm(theta.map - theta2.map) <= 1e-9
            rebuilt = approx_dual_from_whitened(phi, w2, theta2)
            assert operator_norm(rebuilt.synthesis - built.synthesis) <= 1e-9

    def test_kernel_perturbation_detected(self, phi1):
        # ker(synthesis of phi1) = span{(1, -1, 0)}
        shift = np.outer([1.0, -1.0, 0.0], [0.3, 0.1])
        perturbed = Frame(canonical_dual(phi1).synthesis + adjoint(shift))
        w, theta = recover_parameters(phi1, perturbed)
        assert theta.norm > 0.1
        assert operator_norm(phi1.synthesis @ theta.map) <= 1e-10
        assert np.allclose(w, psd_inv_sqrt(frame_operator(phi1)), atol=1e-10)

    def test_rejects_non_approx_pair(self, phi1):
        with pytest.raises(NotApproxDual):
            recover_parameters(phi1, phi1)


class TestApproxDualViaDual:
    def test_canonical_collapse(self, phi0):
        result = approx_dual_via_dual(phi0, canonical_dual(phi0), target=identity(2))
        assert np.allclose(result.synthesis, canonical_dual(phi0).synthesis, atol=1e-12)

    def test_alternate_dual_stays_exact(self, phi0):
        theta = random_annihilator(phi0, seed=11, scale=0.5)
        alt_dual = Frame(canonical_dual(phi0).synthesis + adjoint(theta.map))
        assert approximation_rate(phi0, alt_dual) <= 1e-10
        result = approx_dual_via_dual(phi0, alt_dual, target=identity(2))
        assert operator_norm(mixed_operator(phi0, result) - identity(2)) <= 1e-10
        # the dual shift survives as kernel content of the output
        assert not np.allclose(result.synthesis, canonical_dual(phi0).synthesis)

    def test_scalar_target_rate(self, phi0):
        theta = random_annihilator(phi0, seed=12, scale=0.3)
        alt_dual = Frame(canonical_dual(phi0).synthesis + adjoint(theta.map))
        result = approx_dual_via_dual(phi0, alt_dual, target=0.9 * identity(2))
        assert approximation_rate(phi0, result) == pytest.approx(0.1, abs=1e-10)

    def test_whitened_route(self, phi0):
        w = 0.95 * psd_inv_sqrt(frame_operator(phi0))
        result = approx_dual_via_dual(phi0, canonical_dual(phi0), whitened=w)
        target = psd_sqrt(frame_operator(phi0)) @ w
        assert operator_norm(mixed_operator(phi0, result) - target) <= 1e-10

    def test_complex_frame_both_routes(self):
        phi = random_frame(5, 8, seed=35)
        rng = np.random.default_rng(36)
        theta = random_annihilator(phi, seed=37, scale=0.4)
        alt_dual = Frame(canonical_dual(phi).synthesis + adjoint(theta.map))
        bump = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        target = identity(5) + 0.4 * bump / operator_norm(bump)
        via_target = approx_dual_via_dual(phi, alt_dual, target=target)
        assert operator_norm(mixed_operator(phi, via_target) - target) <= 1e-10
        w = admissible_whitened(phi, seed=38, size=0.3)
        via_whitened = approx_dual_via_dual(phi, alt_dual, whitened=w)
        expected = psd_sqrt(frame_operator(phi)) @ w
        assert operator_norm(mixed_operator(phi, via_whitened) - expected) <= 1e-10

    def test_rejects_non_dual_input(self, phi0):
        with pytest.raises(NotDualPair):
            approx_dual_via_dual(phi0, phi0, target=identity(2))

    def test_requires_exactly_one_operator(self, phi0):
        with pytest.raises(ValueError):
            approx_dual_via_dual(phi0, canonical_dual(phi0))
        with pytest.raises(ValueError):
            approx_dual_via_dual(
                phi0, canonical_dual(phi0), whitened=identity(2), target=identity(2)
            )

    def test_whitened_route_rejects_inadmissible(self, phi0):
        w = psd_inv_sqrt(frame_operator(phi0)) + identity(2)
        with pytest.raises(ContractViolation):
            approx_dual_via_dual(phi0, canonical_dual(phi0), whitened=w)


class TestGDualFromCorresponding:
    def test_identity(self, phi0):
        result = gdual_from_corresponding(phi0, identity(2))
        assert np.allclose(result.synthesis, canonical_dual(phi0).synthesis, atol=1e-12)

    def test_frame_operator_as_corresponding(self, phi0):
        s = frame_operator(phi0)
        result = gdual_from_corresponding(phi0, s)
        expected = np.linalg.inv(s) @ np.linalg.inv(s) @ phi0.synthesis
        assert np.allclose(result.synthesis, expected, atol=1e-10)
        assert operator_norm(mixed_operator(phi0, result) - np.linalg.inv(s)) <= 1e-10

    def test_scalar(self, phi0):
        result = gdual_from_corresponding(phi0, 2.0 * identity(2))
        assert np.allclose(
            result.synthesis, 0.5 * canonical_dual(phi0).synthesis, atol=1e-12
        )

    def test_mixed_operator_contract(self):
        phi = random_frame(5, 8, seed=30)
        rng = np.random.default_rng(31)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 3 * identity(5)
        theta = random_annihilator(phi, seed=32, scale=0.9)
        result = gdual_from_corresponding(phi, a, theta)
        assert operator_norm(mixed_operator(phi, result) - inverse(a)) <= 1e-9

    def test_rejects_singular(self, phi0):
        with pytest.raises(Singular):
            gdual_from_corresponding(phi0, np.zeros((2, 2)))


class TestReconstruct:
    def test_exact_dual(self, phi0):
        rng = np.random.default_rng(33)
        f = random_vector(2, rng)
        out = reconstruct(phi0, canonical_dual(phi0), f)
        assert np.linalg.norm(out - f) <= 1e-12 * np.linalg.norm(f)

    def test_self_gdual_diagonal(self, phi1):
        out = reconstruct(phi1, phi1, [1.0, 1.0])
        assert np.allclose(out, [1.0, 1.0], atol=1e-12)

    def test_exact_through_approx_pair(self, phi0):
        scaled = Frame(canonical_dual(phi0).synthesis * 0.5)
        rng = np.random.default_rng(34)
        f = random_vector(2, rng)
        out = reconstruct(phi0, scaled, f)
        assert np.linalg.norm(out - f) <= 1e-9 * np.linalg.norm(f)

    def test_gdual_pair_beyond_rate_one(self):
        # mixed operator far from the identity (rate 4): reconstruction
        # still exact because the corresponding operator is applied
        phi = random_frame(4, 7, seed=39)
        gd = gdual_from_corresponding(phi, 0.2 * identity(4))
        assert approximation_rate(phi, gd) == pytest.approx(4.0, abs=1e-9)
        rng = np.random.default_rng(40)
        f = random_vector(4, rng)
        assert np.linalg.norm(reconstruct(phi, gd, f) - f) <= 1e-9 * np.linalg.norm(f)

    def test_rejects_singular_pair(self, ortho2):
        with pytest.raises(Singular):
            reconstruct(ortho2, Frame.from_vectors([(1, 0), (0, 0)]), [1.0, 1.0])

    def test_rejects_vector_of_another_length(self, phi0):
        with pytest.raises(DimensionMismatch, match="vector length 3, expected 2"):
            reconstruct(phi0, canonical_dual(phi0), [1.0, 2.0, 3.0])


class TestRangeCompare:
    def test_invertible_recombination_is_equal(self, phi0):
        q = np.array([[2.0, 1.0], [0.5, 1.5]])
        assert range_compare(phi0, Frame(q @ phi0.synthesis)) is RangeRelation.EQUAL

    def test_different_kernels_incomparable(self, phi0):
        other = Frame.from_vectors([(1, 0), (0, 1), (1, -1)])
        assert range_compare(phi0, other) is RangeRelation.INCOMPARABLE

    def test_strict_inclusion_needs_rank_deficiency(self, phi0):
        # rank-1 Bessel family whose single range direction sits inside phi0's range
        bessel = Frame.from_vectors([(1, 0), (0, 0), (1, 0)])
        assert range_compare(bessel, phi0) is RangeRelation.LEFT_IN_RIGHT
        assert range_compare(phi0, bessel) is RangeRelation.RIGHT_IN_LEFT

    def test_equal_count_frames_never_strict(self):
        # two frames of the same space: ranges have equal dimension, so the
        # verdict is either EQUAL or INCOMPARABLE
        for seed in range(10):
            phi = random_frame(4, 7, seed=1000 + seed)
            psi = random_frame(4, 7, seed=1100 + seed)
            assert range_compare(phi, psi) in (
                RangeRelation.EQUAL,
                RangeRelation.INCOMPARABLE,
            )


class TestEquivalenceInverse:
    def test_self_pair(self, phi0):
        s = frame_operator(phi0)
        assert np.allclose(equivalence_inverse(phi0, phi0), np.linalg.inv(s), atol=1e-10)

    def test_canonical_dual_pair(self, phi0):
        out = equivalence_inverse(phi0, canonical_dual(phi0))
        assert np.allclose(out, identity(2), atol=1e-10)

    def test_scaled_pair(self, phi0):
        doubled = Frame(2.0 * phi0.synthesis)
        out = equivalence_inverse(phi0, doubled)
        mixed = mixed_operator(phi0, doubled)
        assert operator_norm(mixed @ out - identity(2)) <= 1e-9
        assert operator_norm(out @ mixed - identity(2)) <= 1e-9

    def test_complex_recombination(self):
        phi = random_frame(5, 9, seed=41)
        rng = np.random.default_rng(42)
        q = identity(5) + 0.5 * (
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ) / np.sqrt(5)
        psi = Frame(q @ phi.synthesis)
        assert range_compare(phi, psi) is RangeRelation.EQUAL
        out = equivalence_inverse(phi, psi)
        mixed = mixed_operator(phi, psi)
        assert operator_norm(mixed @ out - identity(5)) <= 1e-9

    def test_rejects_inequivalent(self, phi0):
        other = Frame.from_vectors([(1, 0), (0, 1), (1, -1)])
        with pytest.raises(NotEquivalent):
            equivalence_inverse(phi0, other)
