"""The paper's identities and inequalities as properties of a pair, on one strategy of frames.

Matrix frames are drawn with kappa(T) up to 1e6 (beyond the frame test's 1e5, so that
NotAFrame is a verdict too) and scaled across the range where their bounds are normal
floats; Gabor systems come from ``TestSystemOracle``'s strategy, b P not an integer and
empty classes included.  On each frame phi:

* construct-then-recover returns the parameters (W, theta);
* the mixed operator of ``approx_dual_from_mixed(phi, A, theta)`` is A, for any annihilator;
* ``gdual_factorization``'s kind is ``classify_pair``'s;
* the transfer keeps the mixed operator, with a finite predicted bound that the measured one
  stays below;
* equal analysis ranges give a two-sided inverse of the mixed operator;
* scaling (phi, phi_ad, psi) by (c, 1/c, c) keeps every verdict and scale-free number, and
  moves the bounds by c^2 or 1/c^2.

Tolerances are the pinned ones (criteria 1, 2 and 4), widened by the first-order
kappa(S) eps of a round trip through S^{-1/2} and S^{1/2}, as ``test_spectral_cache`` does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualframes import (
    Frame,
    NotAFrame,
    NotEquivalent,
    RangeRelation,
    SampledWindow,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    canonical_dual,
    classify_pair,
    equivalence_inverse,
    frame_bounds,
    frame_operator_inv_sqrt,
    gabor_frame,
    gdual_factorization,
    is_frame,
    mixed_operator,
    operator_norm,
    random_annihilator,
    range_compare,
    recover_parameters,
    transfer_approx_dual,
)

from test_gabor import _gabor_cases

RECONSTRUCTION_TOL = 1e-10  # criterion 1: the mixed operator of a construction
ROUNDTRIP_TOL = 1e-9  # criterion 2: recovered parameters; criterion 4: the transfer
EPS = np.finfo(float).eps


def _unitary(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def frames(draw):
    """(phi, a perturbation of phi, rng): a matrix frame U diag(sigma) V scaled by c, sigma
    log-spaced over kappa(T), or a Gabor system and the system of its window perturbed by 1%."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g, _, lat = draw(_gabor_cases())
        moved = SampledWindow(g.grid, g.values * (1.0 + 0.01 * rng.standard_normal(g.grid.total)))
        return gabor_frame(g, lat), gabor_frame(moved, lat), rng
    dim = draw(st.integers(2, 6))
    count = dim + draw(st.integers(0, 5))
    log_kappa = draw(st.floats(0.0, 6.0))
    # every bound, and the transfer's measured one ~ (kappa^2 / c)^2 1e-6, a normal float
    log_c = draw(st.floats(-140.0 + 2.0 * log_kappa, 140.0 - 2.0 * log_kappa))
    sigma = np.logspace(0.0, -log_kappa, dim) * 10.0**log_c
    t = (_unitary(rng, dim) * sigma) @ _unitary(rng, count)[:dim]
    direction = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
    return Frame(t), Frame(t + direction * (1e-3 * sigma[-1] / operator_norm(direction))), rng


def _kappa_s(phi: Frame) -> float:
    lower, upper = frame_bounds(phi)
    return upper / lower


def _bump(rng, dim: int, size: float) -> np.ndarray:
    bump = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return bump * (size / operator_norm(bump))


def _annihilator(phi: Frame, rng, size: float):
    """A seeded annihilator of norm ``size`` / ||T||: a dense draw, so a system reads it
    through its one-class view."""
    return random_annihilator(phi, int(rng.integers(2**31)), size / np.sqrt(frame_bounds(phi).upper))


@settings(max_examples=60, deadline=None)
@given(case=frames())
def test_construct_then_recover_returns_the_parameters(case):
    phi, _, rng = case
    if not is_frame(phi):
        with pytest.raises(NotAFrame):
            approx_dual_from_whitened(phi, np.eye(phi.dim))
        return
    tol = ROUNDTRIP_TOL + 10 * _kappa_s(phi) * EPS
    inv_sqrt = frame_operator_inv_sqrt(phi)
    # ||S^{-1/2} - W|| < 1 / sqrt(M): an admissible W, so an approximate dual
    w = inv_sqrt + _bump(rng, phi.dim, 0.5 / np.sqrt(frame_bounds(phi).upper))
    theta = _annihilator(phi, rng, 0.5)
    built = approx_dual_from_whitened(phi, w, theta)
    w_back, theta_back = recover_parameters(phi, built)
    assert operator_norm(w_back - w) <= tol * operator_norm(w)
    assert operator_norm(theta_back.map - theta.map) <= tol * operator_norm(built.synthesis)
    again = approx_dual_from_whitened(phi, w_back, theta_back)
    assert operator_norm(again.synthesis - built.synthesis) <= tol * operator_norm(built.synthesis)


@settings(max_examples=60, deadline=None)
@given(case=frames(), log_size=st.floats(-3.0, 3.0), rate=st.floats(0.0, 0.9))
def test_mixed_operator_of_a_construction_is_its_target(case, log_size, rate):
    phi, _, rng = case
    if not is_frame(phi):
        return
    target = np.eye(phi.dim) + _bump(rng, phi.dim, rate)
    theta = _annihilator(phi, rng, 10.0**log_size)  # any annihilator: kernel content only
    built = approx_dual_from_mixed(phi, target, theta)
    scale = operator_norm(target) + theta.norm * np.sqrt(frame_bounds(phi).upper)
    assert operator_norm(mixed_operator(phi, built) - target) <= RECONSTRUCTION_TOL * scale


@settings(max_examples=60, deadline=None)
@given(case=frames(), partner=st.sampled_from(["approx", "gdual", "perturbed", "self"]))
def test_factorization_kind_is_the_classification(case, partner):
    phi, moved, rng = case
    if not is_frame(phi):
        with pytest.raises(NotAFrame):
            gdual_factorization(phi, moved)
        return
    psi = {
        "approx": lambda: approx_dual_from_mixed(phi, np.eye(phi.dim) + _bump(rng, phi.dim, 0.5)),
        "gdual": lambda: Frame(3.0 * np.asarray(canonical_dual(phi).synthesis)),
        "perturbed": lambda: moved,
        "self": lambda: phi,
    }[partner]()
    report, verdict = gdual_factorization(phi, psi), classify_pair(phi, psi)
    assert report.kind == verdict.kind and report.rate == verdict.rate


@settings(max_examples=40, deadline=None)
@given(case=frames())
def test_transfer_keeps_the_mixed_operator_under_a_finite_bound(case):
    phi, psi, rng = case
    if not (is_frame(phi) and is_frame(psi)) or _kappa_s(phi) > 1e8:
        return  # the 1% perturbation of a near-singular frame need not be small
    w = frame_operator_inv_sqrt(phi) * 1.05
    phi_ad = approx_dual_from_whitened(phi, w, _annihilator(phi, rng, 0.05))
    result = transfer_approx_dual(phi, psi, phi_ad)
    target = mixed_operator(phi, phi_ad)
    tol = ROUNDTRIP_TOL + 10 * _kappa_s(psi) * EPS
    assert operator_norm(mixed_operator(psi, result.psi_dual) - target) <= tol * operator_norm(target)
    assert np.isfinite(result.predicted_diff_bound)
    assert result.measured_diff_bound <= result.predicted_diff_bound


@settings(max_examples=40, deadline=None)
@given(case=frames(), kernel=st.booleans())
def test_equal_ranges_give_a_two_sided_inverse(case, kernel):
    """An approximate dual with no kernel content has phi's analysis range, and
    equivalence_inverse inverts its mixed operator on both sides; kernel content moves
    the range (n > d), and the pair is then not equivalent."""
    phi, _, rng = case
    if not is_frame(phi):
        return
    theta = _annihilator(phi, rng, 0.5) if kernel else None
    psi = approx_dual_from_mixed(phi, np.eye(phi.dim) + _bump(rng, phi.dim, 0.5), theta)
    relation = range_compare(phi, psi)
    if kernel and theta.norm > 0.0:
        assert relation is RangeRelation.INCOMPARABLE
        with pytest.raises(NotEquivalent):
            equivalence_inverse(phi, psi)
        return
    assert relation is RangeRelation.EQUAL
    inverse, mixed = equivalence_inverse(phi, psi), mixed_operator(phi, psi)
    tol = RECONSTRUCTION_TOL + 10 * _kappa_s(phi) * EPS
    for product in (inverse @ mixed, mixed @ inverse):
        assert operator_norm(product - np.eye(phi.dim)) <= tol


@settings(max_examples=40, deadline=None)
@given(case=frames(), k=st.integers(-40, 40))
def test_verdicts_are_covariant_under_scaling(case, k):
    """(phi 2^k, phi_ad 2^-k, psi 2^k) has the mixed operator of (phi, phi_ad): the same
    kinds and rate, the same scale-free smallness, and bounds moved by 4^k or 4^-k."""
    phi, psi, rng = case
    if not (is_frame(phi) and is_frame(psi)) or _kappa_s(phi) > 1e8:
        return
    phi_ad = approx_dual_from_whitened(phi, 1.05 * frame_operator_inv_sqrt(phi), _annihilator(phi, rng, 0.05))
    c = 2.0**k
    big, small, near = (Frame(np.asarray(f.synthesis) * s) for f, s in ((phi, c), (phi_ad, 1 / c), (psi, c)))
    for read in (classify_pair, gdual_factorization):
        mine, theirs = read(big, small), read(phi, phi_ad)
        assert mine.kind == theirs.kind and abs(mine.rate - theirs.rate) <= 1e-12
    assert np.allclose(frame_bounds(big), np.multiply(frame_bounds(phi), c * c), rtol=1e-12, atol=0.0)
    moved, again = transfer_approx_dual(big, near, small), transfer_approx_dual(phi, psi, phi_ad)
    assert abs(moved.smallness - again.smallness) <= 1e-9 * max(again.smallness, 1e-300)
    for name in ("predicted_diff_bound", "measured_diff_bound"):
        scaled, unscaled = getattr(moved, name) * c * c, getattr(again, name)
        assert abs(scaled - unscaled) <= 1e-9 * unscaled + 1e-300
