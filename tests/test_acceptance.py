"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[criterion N] ...: PASS`` line (visible with
``pytest -s``, and mirrored by the test name under ``pytest -v``).
"""

import functools
import time
from fractions import Fraction

import numpy as np

from dualframes import (
    Frame,
    GaborLattice,
    GridSpec,
    SampledWindow,
    analysis,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    approx_dual_window,
    approximation_rate,
    bessel_bound_difference,
    bspline_value,
    canonical_dual,
    char_dual_check,
    ck_dual1,
    commutation_check,
    frame_bounds,
    frame_operator,
    gabor_frame,
    identity,
    inverse,
    janssen_residual,
    mixed_operator,
    operator_norm,
    painless_check,
    random_annihilator,
    recover_parameters,
    riesz_difference_bound,
    sample_bspline,
    sample_char,
    sample_function,
    scaled_gabor_operator,
    synthesis,
    transfer_approx_dual,
    whitened_admissibility,
)

from conftest import random_frame, random_vector
from oracle import psd_inv_sqrt, psd_sqrt


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] {label}: FAIL", flush=True)
                raise
            print(f"[criterion {num:2d}] {label}: PASS", flush=True)

        return run

    return wrap


def bounded_bump(dim, seed, size):
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return bump * (size / operator_norm(bump))


def perturb_frame(phi, eps, seed):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(phi.synthesis.shape) + 1j * rng.standard_normal(
        phi.synthesis.shape
    )
    return Frame(phi.synthesis + eps * direction / operator_norm(direction))


@criterion(1, "canonical-dual reconstruction at 1e-10 over 100 seeded frames")
def test_criterion_1_canonical_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    for seed in range(100):
        phi = random_frame(8, 12, seed=seed)
        dual = canonical_dual(phi)
        for _ in range(10):
            f = random_vector(8, rng)
            scale = np.linalg.norm(f)
            rec1 = synthesis(phi, analysis(dual, f))
            rec2 = synthesis(dual, analysis(phi, f))
            assert np.linalg.norm(rec1 - f) <= 1e-10 * scale
            assert np.linalg.norm(rec2 - f) <= 1e-10 * scale
    assert time.perf_counter() - start <= 5.0


@criterion(2, "whitened-parameter characterization round-trip at 1e-9")
def test_criterion_2_characterization_roundtrip():
    for seed in range(50):
        phi = random_frame(8, 12, seed=2000 + seed)
        s = frame_operator(phi)
        upper = frame_bounds(phi).upper
        w = psd_inv_sqrt(s) + bounded_bump(8, 3000 + seed, 0.5 / np.sqrt(upper))
        gap = operator_norm(identity(8) - psd_sqrt(s) @ w)
        assert gap < 1.0  # construction stays inside the contract region
        theta = random_annihilator(phi, seed=4000 + seed, scale=0.6)
        built = approx_dual_from_whitened(phi, w, theta)
        w_back, theta_back = recover_parameters(phi, built)
        assert operator_norm(w - w_back) <= 1e-9
        assert operator_norm(theta.map - theta_back.map) <= 1e-9
        assert operator_norm(mixed_operator(phi, built) - psd_sqrt(s) @ w) <= 1e-10


@criterion(3, "admissible whitened factors give rates below the implied bound")
def test_criterion_3_admissibility_implication():
    for seed in range(50):
        phi = random_frame(8, 12, seed=5000 + seed)
        upper = frame_bounds(phi).upper
        w = psd_inv_sqrt(frame_operator(phi)) + bounded_bump(
            8, 6000 + seed, 0.8 / np.sqrt(upper)
        )
        check = whitened_admissibility(phi, w)
        assert check.admissible
        rate = approximation_rate(phi, approx_dual_from_whitened(phi, w))
        assert rate < 1.0
        assert rate <= np.sqrt(upper) * check.distance + 1e-10


@criterion(4, "perturbation transfer: exact mixed match, valid closed-form bound")
def test_criterion_4_perturbation_transfer():
    eps_values = (0.02, 0.01, 0.005)
    for trial in range(50):
        eps = eps_values[trial % 3]
        phi = random_frame(8, 12, seed=7000 + trial)
        target = identity(8) + bounded_bump(8, 7100 + trial, 0.3)
        theta = random_annihilator(phi, seed=7200 + trial, scale=0.5)
        phi_ad = approx_dual_from_mixed(phi, target, theta)
        psi = perturb_frame(phi, eps, seed=7300 + trial)
        result = transfer_approx_dual(phi, psi, phi_ad)
        assert result.mixed_match_residual <= 1e-9
        assert result.measured_diff_bound <= result.predicted_diff_bound + 1e-9
        # proof-chain inequalities on the corrector
        gap = operator_norm(identity(8) - result.corrector)
        assert gap <= result.smallness + 1e-10
        inv_c = inverse(result.corrector)
        assert operator_norm(inv_c) <= 1.0 / (1.0 - gap) + 1e-10
        assert operator_norm(identity(8) - inv_c) <= operator_norm(inv_c) * gap + 1e-10


@criterion(5, "Riesz difference bound dominates the optimal bound; tight for scalars")
def test_criterion_5_riesz_difference():
    for seed in range(50):
        rng = np.random.default_rng(8000 + seed)
        phi = Frame(identity(8) + bounded_bump(8, 8100 + seed, 0.4))
        psi = Frame(identity(8) + bounded_bump(8, 8200 + seed, 0.4))
        bound = riesz_difference_bound(phi, psi)
        optimal = bessel_bound_difference(phi, psi)
        assert bound >= optimal - 1e-9
        lam = 0.5 + rng.random()
        scaled = Frame(lam * phi.synthesis)
        tight = riesz_difference_bound(phi, scaled)
        exact = bessel_bound_difference(phi, scaled)
        assert abs(tight - exact) <= 1e-10 * max(1.0, exact)


@criterion(6, "explicit dual generator for the order-2 B-spline is exactly dual")
def test_criterion_6_gabor_exact_duality():
    start = time.perf_counter()
    grid = GridSpec(10, 20)
    lat = GaborLattice(1, Fraction(1, 10))
    b2 = sample_bspline(2, grid)
    dual = ck_dual1(b2, 2, Fraction(1, 10))
    expected = 0.1 * b2.values + 0.2 * np.roll(b2.values, -10)
    assert np.array_equal(dual.values, expected)
    assert janssen_residual(b2, dual, lat) <= 1e-10
    rate = approximation_rate(gabor_frame(b2, lat), gabor_frame(dual, lat))
    assert rate <= 1e-10
    assert time.perf_counter() - start <= 10.0


@criterion(7, "commuting scaled operator prescribes the approximation rate")
def test_criterion_7_prescribed_rate_window():
    grid = GridSpec(10, 20)
    lat = GaborLattice(1, Fraction(1, 10))
    b2 = sample_bspline(2, grid)
    dual = ck_dual1(b2, 2, Fraction(1, 10))
    scaling = sample_bspline(3, grid)
    a_op = scaled_gabor_operator(scaling, lat)
    assert commutation_check(a_op, lat, grid) <= 1e-9
    out = approx_dual_window(b2, dual, a_op, lat)
    system = gabor_frame(b2, lat)
    out_system = gabor_frame(out, lat)
    assert operator_norm(mixed_operator(system, out_system) - a_op) <= 1e-9
    rate = approximation_rate(system, out_system)
    gap = operator_norm(identity(grid.total) - a_op)
    lower, upper = frame_bounds(gabor_frame(scaling, lat))
    assert abs(rate - gap) <= 1e-9
    assert abs(gap - (1.0 - lower / upper)) <= 1e-9


@criterion(8, "painless frame operator is 2*Id and matches weight/b, not b/weight")
def test_criterion_8_painless_adjudication():
    grid = GridSpec(8, 2)
    lat = GaborLattice(Fraction(1, 2), 1)
    window = sample_char(1, grid)
    s_mat = frame_operator(gabor_frame(window, lat))
    assert operator_norm(s_mat - 2.0 * identity(grid.total)) <= 1e-12
    report = painless_check(window, lat, 1)
    assert report.matched_formula == "weight/b"
    assert report.weight_over_step_error <= 1e-12
    assert report.step_over_weight_error > 1e-3  # the printed inverse is refuted
    assert np.allclose(report.diagonal, 2.0, atol=1e-12)


@criterion(9, "indicator-window duality sweep matches the min-rule criterion")
def test_criterion_9_char_sweep():
    grid = GridSpec(4, 3)  # period divisible by every step in the sweep
    quarters = [Fraction(k, 4) for k in range(1, 5)]
    cells = 0
    for c in quarters:
        for cp in quarters:
            for a in quarters:
                verdict = char_dual_check(c, cp, a, grid)
                expected = c <= 1 and cp <= 1 and a == min(c, cp)
                assert verdict == expected, f"cell (c={c}, c'={cp}, a={a})"
                cells += 1
    assert cells == 64


@criterion(10, "Gaussian vs scaled order-8 spline surrogate stays in the 0.02 band")
def test_criterion_10_gaussian_spline_surrogate():
    start = time.perf_counter()
    grid = GridSpec(16, 32)
    lat = GaborLattice(1, Fraction(1, 10))
    gaussian = sample_function(lambda x: np.exp(-4.0 * x**2), grid, centered=True)

    # symmetric order-8 spline, dilated by 2.36, normalized by its own
    # periodized energy and the 15.1/315 factor
    def spline(u):
        return bspline_value(8, 2.36 * np.asarray(u) + 4.0)

    x = grid.centered_points()
    energy = np.zeros_like(x)
    for n in range(-40, 41):
        energy += spline(x + n) ** 2
    window = SampledWindow(grid, (15.1 / 315.0) * spline(x) / energy)

    rate = approximation_rate(gabor_frame(gaussian, lat), gabor_frame(window, lat))
    print(f"    measured rate: {rate:.6f}", flush=True)
    assert rate <= 0.02
    assert time.perf_counter() - start <= 60.0
