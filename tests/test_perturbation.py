import numpy as np
import pytest

from dualframes import (
    Frame,
    NotRieszBasis,
    SmallnessViolated,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    bessel_bound_difference,
    canonical_dual,
    frame_bounds,
    frame_operator,
    identity,
    inverse,
    is_riesz,
    mixed_operator,
    operator_norm,
    random_annihilator,
    riesz_difference_bound,
    self_gdual_transfer,
    transfer_approx_dual,
    transfer_gdual,
)

from conftest import random_frame
from oracle import psd_inv_sqrt


def perturbed(phi: Frame, eps: float, seed: int) -> Frame:
    """phi shifted by eps times a unit-operator-norm direction."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(phi.synthesis.shape) + 1j * rng.standard_normal(
        phi.synthesis.shape
    )
    direction /= operator_norm(direction)
    return Frame(phi.synthesis + eps * direction)


def sample_approx_dual(phi: Frame, seed: int, theta_scale: float = 0.5):
    """An approximate dual with nontrivial operator part and annihilator."""
    rng = np.random.default_rng(seed)
    d = phi.dim
    bump = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = identity(d) + 0.3 * bump / operator_norm(bump)
    theta = random_annihilator(phi, seed=seed + 1, scale=theta_scale)
    return approx_dual_from_mixed(phi, target, theta)


class TestTransferApproxDual:
    def test_zero_perturbation_is_identity(self):
        phi = random_frame(5, 8, seed=40)
        phi_ad = sample_approx_dual(phi, seed=41)
        result = transfer_approx_dual(phi, phi, phi_ad)
        assert operator_norm(result.psi_dual.synthesis - phi_ad.synthesis) <= 1e-12
        assert result.measured_diff_bound <= 1e-24
        assert result.mixed_match_residual <= 1e-12
        assert operator_norm(result.corrector - identity(5)) <= 1e-12

    def test_small_perturbation_of_phi0(self, phi0):
        psi = Frame.from_vectors([(1, 0), (0, 1), (1, 1.01)])
        result = transfer_approx_dual(phi0, psi, canonical_dual(phi0))
        assert result.mixed_match_residual <= 1e-10
        assert result.measured_diff_bound <= result.predicted_diff_bound + 1e-9
        # the transferred family realizes the same mixed operator: identity
        assert operator_norm(mixed_operator(psi, result.psi_dual) - identity(2)) <= 1e-10

    def test_mixed_operator_preserved(self):
        phi = random_frame(6, 10, seed=42)
        phi_ad = sample_approx_dual(phi, seed=43)
        psi = perturbed(phi, 0.01, seed=44)
        result = transfer_approx_dual(phi, psi, phi_ad)
        target = mixed_operator(phi, phi_ad)
        assert operator_norm(mixed_operator(psi, result.psi_dual) - target) <= 1e-9

    def test_bound_validity_over_trials(self):
        for seed in range(15):
            phi = random_frame(5, 9, seed=1200 + seed)
            phi_ad = sample_approx_dual(phi, seed=1300 + seed)
            psi = perturbed(phi, 0.01, seed=1400 + seed)
            result = transfer_approx_dual(phi, psi, phi_ad)
            assert result.mixed_match_residual <= 1e-9
            assert result.measured_diff_bound <= result.predicted_diff_bound + 1e-9

    def test_scaling_law(self):
        phi = random_frame(5, 9, seed=45)
        phi_ad = sample_approx_dual(phi, seed=46)
        measured = []
        for eps in (0.02, 0.01, 0.005):
            psi = perturbed(phi, eps, seed=47)  # same direction each time
            assert bessel_bound_difference(phi, psi) == pytest.approx(eps**2, rel=1e-9)
            measured.append(transfer_approx_dual(phi, psi, phi_ad).measured_diff_bound)
        assert measured[1] <= measured[0] / 2.0
        assert measured[2] <= measured[1] / 2.0

    def test_corrector_inequalities(self):
        # ||C^{-1}|| <= 1/(1 - ||Id - C||) and ||Id - C^{-1}|| <= ||C^{-1}|| ||Id - C||
        for seed in range(15):
            phi = random_frame(5, 9, seed=1500 + seed)
            phi_ad = sample_approx_dual(phi, seed=1600 + seed)
            psi = perturbed(phi, 0.02, seed=1700 + seed)
            result = transfer_approx_dual(phi, psi, phi_ad)
            eye = identity(5)
            gap = operator_norm(eye - result.corrector)
            assert gap < 1.0
            inv_c = inverse(result.corrector)
            assert operator_norm(inv_c) <= 1.0 / (1.0 - gap) + 1e-10
            assert operator_norm(eye - inv_c) <= operator_norm(inv_c) * gap + 1e-10

    def test_frame_operator_lipschitz(self):
        for seed in range(10):
            phi = random_frame(5, 9, seed=1800 + seed)
            psi = perturbed(phi, 0.05, seed=1900 + seed)
            diff = bessel_bound_difference(phi, psi)
            lhs = operator_norm(frame_operator(phi) - frame_operator(psi))
            rhs = np.sqrt(diff) * (
                np.sqrt(frame_bounds(phi).upper) + np.sqrt(frame_bounds(psi).upper)
            )
            assert lhs <= rhs + 1e-9

    def test_rejects_non_approx_partner(self):
        from dualframes import NotApproxDual

        phi = random_frame(5, 9, seed=65)
        psi = perturbed(phi, 0.01, seed=66)
        with pytest.raises(NotApproxDual):
            transfer_approx_dual(phi, psi, phi)  # rate of (phi, phi) is >= 1

    def test_smallness_violation_raises(self):
        phi = random_frame(5, 9, seed=48)
        theta = random_annihilator(phi, seed=49, scale=10.0)
        phi_ad = approx_dual_from_whitened(
            phi, psd_inv_sqrt(frame_operator(phi)), theta
        )
        psi = perturbed(phi, 0.2, seed=50)
        with pytest.raises(SmallnessViolated) as err:
            transfer_approx_dual(phi, psi, phi_ad)
        assert err.value.measured >= 1.0


class TestTransferGDual:
    def test_zero_perturbation(self):
        phi = random_frame(4, 7, seed=51)
        result = transfer_gdual(phi, phi, phi)
        assert operator_norm(result.psi_dual.synthesis - phi.synthesis) <= 1e-10

    def test_self_gdual_target(self):
        # phi is a g-dual of itself with mixed operator S_phi; the transfer
        # carries that mixed operator to the perturbed frame
        phi = random_frame(4, 7, seed=52)
        psi = perturbed(phi, 0.01, seed=53)
        result = transfer_gdual(phi, psi, phi)
        s = frame_operator(phi)
        assert operator_norm(mixed_operator(psi, result.psi_dual) - s) <= 1e-9

    def test_bound_holds_for_gdual_input(self):
        phi = random_frame(4, 7, seed=54)
        rng = np.random.default_rng(55)
        a = 2.0 * identity(4) + 0.3 * (
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        from dualframes import gdual_from_corresponding

        phi_gd = gdual_from_corresponding(
            phi, a, random_annihilator(phi, seed=56, scale=0.4)
        )
        psi = perturbed(phi, 0.005, seed=57)
        result = transfer_gdual(phi, psi, phi_gd)
        assert result.mixed_match_residual <= 1e-9
        assert result.measured_diff_bound <= result.predicted_diff_bound + 1e-9


class TestSelfGDualTransfer:
    def test_identity_case(self):
        phi = random_frame(4, 7, seed=58)
        result = self_gdual_transfer(phi, phi)
        assert operator_norm(result.psi_dual.synthesis - phi.synthesis) <= 1e-10

    def test_near_orthonormal(self):
        phi = Frame(identity(4))
        psi = perturbed(phi, 0.02, seed=59)
        result = self_gdual_transfer(phi, psi)
        # S_phi is the identity here
        assert operator_norm(mixed_operator(psi, result.psi_dual) - identity(4)) <= 1e-9

    def test_riesz_inputs_give_riesz_output(self):
        rng = np.random.default_rng(60)
        phi = Frame(identity(5) + 0.1 * rng.standard_normal((5, 5)))
        psi = perturbed(phi, 0.02, seed=61)
        assert is_riesz(phi) and is_riesz(psi)
        result = self_gdual_transfer(phi, psi)
        assert is_riesz(result.psi_dual)


class TestRieszDifferenceBound:
    def test_equal_bases(self, ortho2):
        assert riesz_difference_bound(ortho2, ortho2) == pytest.approx(0.0, abs=1e-12)

    def test_doubling(self):
        rng = np.random.default_rng(62)
        phi = Frame(identity(4) + 0.2 * rng.standard_normal((4, 4)))
        psi = Frame(2.0 * phi.synthesis)
        big_m = frame_bounds(phi).upper
        # min(M_phi * 1, 4 M_phi * 1/4) = M_phi
        assert riesz_difference_bound(phi, psi) == pytest.approx(big_m, rel=1e-10)

    def test_shear_example(self, ortho2):
        psi = Frame.from_vectors([(1, 0), (0.1, 1)])
        bound = riesz_difference_bound(ortho2, psi)
        optimal = bessel_bound_difference(ortho2, psi)
        assert optimal == pytest.approx(0.01, rel=1e-10)
        assert bound >= optimal - 1e-9

    def test_scalar_case_is_tight(self):
        rng = np.random.default_rng(63)
        phi = Frame(identity(5) + 0.1 * rng.standard_normal((5, 5)))
        psi = Frame(1.3 * phi.synthesis)
        bound = riesz_difference_bound(phi, psi)
        optimal = bessel_bound_difference(phi, psi)
        assert abs(bound - optimal) <= 1e-10 * max(1.0, optimal)

    def test_dominates_optimal_on_random_pairs(self):
        rng = np.random.default_rng(64)
        for seed in range(20):
            phi = Frame(identity(4) + 0.3 * rng.standard_normal((4, 4)))
            psi = Frame(identity(4) + 0.3 * rng.standard_normal((4, 4)))
            assert riesz_difference_bound(phi, psi) >= bessel_bound_difference(
                phi, psi
            ) - 1e-9

    def test_rejects_redundant_frames(self, phi0, ortho2):
        with pytest.raises(NotRieszBasis):
            riesz_difference_bound(phi0, phi0)
        with pytest.raises(NotRieszBasis):
            riesz_difference_bound(
                ortho2, Frame.from_vectors([(1, 0), (1e-14, 0)])
            )


def scaled_transfer_inputs(c: float):
    """A seeded 3x5 frame, a 0.1% perturbation and an approximate dual from 1.05 S^{-1/2},
    all scaled by ``c``: the frames' bounds are normal floats for |log10 c| <= 150."""
    rng = np.random.default_rng(7)
    t = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    direction = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    direction *= 1e-3 * operator_norm(t) / operator_norm(direction)
    phi, psi = Frame(t * c), Frame((t + direction) * c)
    from dualframes import approx_dual_from_whitened, frame_operator_inv_sqrt

    return phi, psi, approx_dual_from_whitened(phi, 1.05 * frame_operator_inv_sqrt(phi))


TRANSFERS = {
    "approx": lambda phi, psi, ad: transfer_approx_dual(phi, psi, ad),
    "gdual": lambda phi, psi, ad: transfer_gdual(phi, psi, ad),
    "self": lambda phi, psi, ad: self_gdual_transfer(phi, psi),
}


class TestTransferAtExtremeScales:
    """The closed form is read as scale-free ratios times a power of the scale: no product
    of bounds under- or overflows, so the predicted bound is finite at every scale where the
    bounds are normal floats (RuntimeWarning is an error here, see pyproject.toml)."""

    @pytest.mark.parametrize("c", [1e-100, 1e-80, 1.0, 1e3, 1e80, 1e120])
    @pytest.mark.parametrize("name", sorted(TRANSFERS))
    def test_predicted_bound_is_finite(self, name, c):
        phi, psi, ad = scaled_transfer_inputs(c)
        result = TRANSFERS[name](phi, psi, ad)
        assert np.isfinite(result.predicted_diff_bound) and np.isfinite(result.measured_diff_bound)
        target = mixed_operator(phi, phi if name == "self" else ad)
        assert operator_norm(mixed_operator(psi, result.psi_dual) - target) <= 1e-9 * operator_norm(target)
        assert result.measured_diff_bound <= result.predicted_diff_bound
        # the bound scales as ||T_dual||^2 does: as 1/c^2 for the approximate dual, and as c^2
        # for phi itself as its own g-dual
        power = 2 if name == "self" else -2
        unscaled = TRANSFERS[name](*scaled_transfer_inputs(1.0))
        assert abs(result.predicted_diff_bound / c**power - unscaled.predicted_diff_bound) <= (
            1e-9 * unscaled.predicted_diff_bound)
