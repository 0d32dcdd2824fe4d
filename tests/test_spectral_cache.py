"""The cached spectral facts of a Frame against a dense numpy oracle.

Every fact a Frame caches (eigenvalues, spectrum, kernel) and every
operator derived from them is compared with the same quantity recomputed
from scratch with plain ``np.linalg`` on ``S = T T*``, at the acceptance
suite's pinned tolerances: 1e-10 for bounds, roots, the canonical dual and
the kernel projector, 1e-9 for recovered parameters.

Frames come in three families: random redundant frames, square Riesz
bases and near-singular frames with a prescribed condition number of S
up to 1e8.  Forming S rounds its smallest eigenvalue by about
eps * lambda_max, so anything carrying S^{-1} is only known to relative
accuracy kappa(S) * eps; the canonical dual (solved by LU in the oracle,
from the spectrum in the library) is therefore compared through the
residual of its defining equation S D = T, where that roundoff does not
grow with kappa(S).  Rebuilding a family from its recovered whitened
factor forms S again, so that round trip is allowed the same first-order
kappa(S) * eps on top of the pinned tolerance, in the parent code as here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualframes as df
from dualframes import oplin
from dualframes import (
    Frame,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    canonical_dual,
    classify_pair,
    frame_bounds,
    frame_operator_inv_sqrt,
    frame_operator_sqrt,
    gdual_factorization,
    gabor_frame,
    kernel_basis,
    random_annihilator,
    recover_parameters,
    transfer_approx_dual,
)

RECONSTRUCTION_TOL = 1e-10  # criterion 1
ROUNDTRIP_TOL = 1e-9  # criterion 2
EPS = np.finfo(float).eps


def norm(m) -> float:
    return float(np.linalg.norm(m, 2))


def unitary(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def synthesis_matrix(kind: str, dim: int, extra: int, log_kappa: float, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal((dim, dim + extra)) + 1j * rng.standard_normal((dim, dim + extra))
    if kind == "riesz":
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # near-singular: singular values of T log-spaced over sqrt(kappa(S))
    sigma = np.logspace(0.0, -log_kappa / 2.0, dim)
    count = dim + extra
    return (unitary(rng, dim) * sigma) @ unitary(rng, count)[:dim]


frames = st.builds(
    synthesis_matrix,
    kind=st.sampled_from(["random", "riesz", "near_singular"]),
    dim=st.integers(2, 7),
    extra=st.integers(0, 6),
    log_kappa=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)


class Oracle:
    """Dense recomputation of every spectral fact from S = T T*."""

    def __init__(self, t: np.ndarray):
        self.s = t @ t.conj().T
        self.w, v = np.linalg.eigh(self.s)
        self.sqrt = (v * np.sqrt(self.w)) @ v.conj().T
        self.inv_sqrt = (v / np.sqrt(self.w)) @ v.conj().T
        self.dual = np.linalg.solve(self.s, t)
        self.kernel_projector = np.eye(t.shape[1]) - np.linalg.pinv(t) @ t


@settings(max_examples=60, deadline=None)
@given(t=frames)
def test_cached_spectral_facts_match_the_dense_oracle(t):
    phi = Frame(t)
    o = Oracle(t)
    lower, upper = frame_bounds(phi)
    assert abs(lower - o.w[0]) <= RECONSTRUCTION_TOL * o.w[-1]
    assert abs(upper - o.w[-1]) <= RECONSTRUCTION_TOL * o.w[-1]
    assert norm(frame_operator_sqrt(phi) - o.sqrt) <= RECONSTRUCTION_TOL * norm(o.sqrt)
    inv_sqrt = frame_operator_inv_sqrt(phi)
    assert norm(inv_sqrt - o.inv_sqrt) <= RECONSTRUCTION_TOL * norm(o.inv_sqrt)
    dual = canonical_dual(phi).synthesis
    assert norm(o.s @ (dual - o.dual)) <= RECONSTRUCTION_TOL * norm(t)
    k = kernel_basis(phi)
    assert k.shape == (phi.count, phi.count - phi.dim)
    assert norm(k @ k.conj().T - o.kernel_projector) <= RECONSTRUCTION_TOL
    # a second request is served from the cache, unchanged
    assert frame_bounds(phi) == (lower, upper)
    assert np.array_equal(frame_operator_inv_sqrt(phi), inv_sqrt)


@settings(max_examples=40, deadline=None)
@given(t=frames, seed=st.integers(0, 2**32 - 1))
def test_parameters_round_trip_and_factor_match_the_oracle(t, seed):
    phi = Frame(t)
    o = Oracle(t)
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal((phi.dim, phi.dim)) + 1j * rng.standard_normal((phi.dim, phi.dim))
    w = o.inv_sqrt + bump * (0.5 / (np.sqrt(o.w[-1]) * norm(bump)))
    theta = random_annihilator(phi, seed=seed, scale=0.5)
    built = approx_dual_from_whitened(phi, w, theta)
    scale = norm(built.synthesis)

    w_back, theta_back = recover_parameters(phi, built)
    mixed = t @ built.synthesis.conj().T
    assert norm(w_back - o.inv_sqrt @ mixed) <= ROUNDTRIP_TOL * norm(o.inv_sqrt @ mixed)
    assert norm(theta_back.map - theta.map) <= ROUNDTRIP_TOL * scale
    again = approx_dual_from_whitened(phi, w_back, theta_back)
    kappa = o.w[-1] / o.w[0]
    assert norm(again.synthesis - built.synthesis) <= (ROUNDTRIP_TOL + 10 * kappa * EPS) * scale

    factor = gdual_factorization(phi, built)
    assert norm(factor.whitened - o.inv_sqrt @ mixed) <= RECONSTRUCTION_TOL * norm(o.inv_sqrt @ mixed)


class TestStaleness:
    def test_writing_the_callers_array_changes_no_verdict(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        original = arr.copy()
        phi = Frame(arr)
        bounds = frame_bounds(phi)
        # written after the bounds are cached, before the spectrum and kernel are
        arr[:] = 0.0
        fresh = Frame(original)
        assert np.array_equal(phi.synthesis, original)
        assert frame_bounds(phi) == bounds == frame_bounds(fresh)
        assert np.array_equal(canonical_dual(phi).synthesis, canonical_dual(fresh).synthesis)
        assert np.array_equal(kernel_basis(phi), kernel_basis(fresh))

    def test_synthesis_and_cached_facts_are_read_only(self):
        phi = Frame(np.arange(6.0).reshape(2, 3) + np.eye(2, 3))
        canonical_dual(phi)
        for arr in (phi.synthesis, phi.eigenvalues, phi.spectrum.eigenvectors, phi.kernel):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        arr = np.eye(2, 3, dtype=complex) + np.eye(2, 3, 1)
        view = arr[:]
        view.flags.writeable = False
        phi = Frame(view)
        arr[:] = 0.0
        assert norm(phi.synthesis) > 0.0

    def test_subclass_view_is_copied(self):
        class Sub(np.ndarray):
            pass

        arr = np.eye(2, 3, dtype=complex) + np.eye(2, 3, 1)
        phi = Frame(arr.view(Sub))
        arr[:] = 0.0
        assert norm(phi.synthesis) > 0.0

    def test_gabor_synthesis_is_adopted_without_a_copy(self):
        syn = np.eye(3, 4, dtype=complex) + np.eye(3, 4, 1)
        assert Frame._adopt(syn).synthesis is syn
        grid = df.GridSpec(4, 4)
        system = gabor_frame(df.sample_bspline(2, grid), df.GaborLattice(1, "1/4"))
        assert not system.synthesis.flags.writeable


def test_pipeline_decomposes_each_frame_once(monkeypatch):
    """The 64x96 finite-frame pipeline decomposes each frame operator once.

    Roots are used for phi (whitened factors, canonical dual) and for the
    perturbed psi (its canonical dual), so at most two full ``eigh`` run;
    only phi's kernel is used, and it is computed once.
    """
    calls = {"eigh": 0, "eigvalsh": 0, "svd_split": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(oplin, "svd_split", counted("svd_split", oplin.svd_split))

    rng = np.random.default_rng(64)
    gauss = lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    bump = gauss((64, 64))
    target = np.eye(64) + bump * (0.3 / norm(bump))
    direction = gauss((64, 96))

    phi = Frame(gauss((64, 96)))
    theta = random_annihilator(phi, seed=5, scale=0.5)
    phi_ad = approx_dual_from_mixed(phi, target, theta)
    assert classify_pair(phi, phi_ad).kind == "approx"
    assert gdual_factorization(phi, phi_ad).bessel_bound_ok
    whitened, theta_back = recover_parameters(phi, phi_ad)
    approx_dual_from_whitened(phi, whitened, theta_back)
    psi = Frame(phi.synthesis + direction * (0.01 / norm(direction)))
    moved = transfer_approx_dual(phi, psi, phi_ad)
    assert moved.mixed_match_residual <= ROUNDTRIP_TOL

    assert calls["eigh"] <= 2  # phi and psi
    # bounds of phi, phi_ad and psi, plus lambda_max(W W*) in the factorization
    assert calls["eigvalsh"] <= 4
    assert calls["svd_split"] <= 1  # only phi's kernel is used
