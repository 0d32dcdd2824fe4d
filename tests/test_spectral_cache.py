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

import gc
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualframes as df
from dualframes import duality, oplin, perturbation
from dualframes import (
    Frame,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    approx_dual_via_dual,
    canonical_dual,
    classify_pair,
    frame_bounds,
    frame_operator,
    frame_operator_inv_sqrt,
    frame_operator_sqrt,
    gdual_factorization,
    gdual_from_corresponding,
    gabor_frame,
    kernel_basis,
    mixed_operator,
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


@settings(max_examples=40, deadline=None)
@given(t=frames, size=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_every_parameterization_builds_one_family(t, size, seed):
    """A target A, a whitened factor S^{-1/2} A and a corresponding operator
    A^{-1} name one family A* S^{-1} phi_k + theta*(delta_k); its theta is recovered."""
    phi = Frame(t)
    o = Oracle(t)
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal((phi.dim, phi.dim)) + 1j * rng.standard_normal((phi.dim, phi.dim))
    a = np.eye(phi.dim) + bump * (size / norm(bump))
    theta = random_annihilator(phi, seed=seed, scale=0.5)
    built = approx_dual_from_mixed(phi, a, theta).synthesis
    kappa = o.w[-1] / o.w[0]
    tol = (RECONSTRUCTION_TOL + 10 * kappa * EPS) * norm(built)
    assert norm(approx_dual_from_whitened(phi, o.inv_sqrt @ a, theta).synthesis - built) <= tol
    assert norm(gdual_from_corresponding(phi, np.linalg.inv(a), theta).synthesis - built) <= tol
    theta_back = recover_parameters(phi, Frame(built))[1]
    assert norm(theta_back.map - theta.map) <= ROUNDTRIP_TOL * norm(built)


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


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def run_pipeline() -> Frame:
    """The 64x96 finite-frame pipeline of a benchmark task; returns phi."""
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
    return phi


def test_pipeline_decomposes_each_frame_once(monkeypatch):
    """The 64x96 finite-frame pipeline decomposes each frame operator once.

    A dense frame's eigenvalues are its spectrum's, so the frame operators
    of phi, phi_ad and psi take one ``eigh`` each and no ``eigvalsh``; only
    phi's kernel is used, and it is computed once.  The canonical duals of
    phi and psi are each built once, however many constructions read them.
    """
    calls = {"eigh": 0, "eigvalsh": 0, "svd_split": 0, "canonical_dual": 0}
    monkeypatch.setattr(np.linalg, "eigh", counted(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(calls, "eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(oplin, "svd_split", counted(calls, "svd_split", oplin.svd_split))
    build = cached_property(counted(calls, "canonical_dual", Frame._canonical_dual.func))
    build.__set_name__(Frame, "_canonical_dual")
    monkeypatch.setattr(Frame, "_canonical_dual", build)

    phi = run_pipeline()

    assert calls["eigh"] <= 3  # phi, phi_ad and psi
    assert calls["eigvalsh"] <= 1  # lambda_max(W W*) in the factorization
    assert calls["svd_split"] <= 1  # only phi's kernel is used
    assert calls["canonical_dual"] <= 2  # phi and psi
    dual = canonical_dual(phi)
    assert canonical_dual(phi) is dual and not dual.synthesis.flags.writeable
    with pytest.raises(AttributeError):
        dual.synthesis = phi.synthesis
    # whichever is read first, the eigenvalues are the spectrum's own array: one eigh, no eigvalsh
    for spectrum_first in (True, False):
        fresh, before = Frame(phi.synthesis), dict(calls)
        if spectrum_first:
            spectrum = fresh.spectrum
            assert fresh.eigenvalues is spectrum.eigenvalues
        else:
            eigenvalues = fresh.eigenvalues
            assert eigenvalues is fresh.spectrum.eigenvalues
        assert (calls["eigh"], calls["eigvalsh"]) == (before["eigh"] + 1, before["eigvalsh"])


def test_pipeline_reads_each_pair_fact_once(monkeypatch):
    """The pair (phi, phi_ad) is read by the classification, the factorization,
    parameter recovery and the transfer; its facts are computed once.

    ``identity_gap`` runs for the two constructions' hypothesis checks and
    once for the pair's rate; the one ``inv`` is the pair's corresponding
    operator; theta is built once: one projection onto ker T, made by the
    first ``_theta_part`` call that finds no theta on the pair's record.
    """
    calls = {"identity_gap": 0, "inv": 0, "theta_build": 0}
    monkeypatch.setattr(oplin, "identity_gap", counted(calls, "identity_gap", oplin.identity_gap))
    monkeypatch.setattr(np.linalg, "inv", counted(calls, "inv", np.linalg.inv))
    theta_part = duality._theta_part

    def build(phi, partner):
        calls["theta_build"] += df.frames._pair(phi, partner).theta is None
        return theta_part(phi, partner)

    monkeypatch.setattr(duality, "_theta_part", build)
    monkeypatch.setattr(perturbation, "_theta_part", build)

    run_pipeline()

    assert calls["identity_gap"] <= 3
    assert calls["inv"] <= 1
    assert calls["theta_build"] == 1


def test_pipeline_builds_each_root_once(monkeypatch):
    """S^{1/2} and S^{-1/2} are kept on phi's spectrum: the factorization, the
    whitened construction and parameter recovery read one build of each."""
    built = {"sqrt": [], "inv_sqrt": []}
    for name in built:
        root = getattr(oplin.Spectrum, name).func

        def build(spectrum, name=name, root=root):
            built[name].append(spectrum)
            return root(spectrum)

        kept = cached_property(build)
        kept.__set_name__(oplin.Spectrum, name)
        monkeypatch.setattr(oplin.Spectrum, name, kept)

    phi = run_pipeline()

    for name, spectra in built.items():
        assert len(spectra) == 1 and spectra[0] is phi.spectrum, name


def test_roots_are_kept_read_only():
    rng = np.random.default_rng(7)
    phi = Frame(rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7)))
    spectrum = phi.spectrum
    for name, read in (("sqrt", frame_operator_sqrt), ("inv_sqrt", frame_operator_inv_sqrt)):
        root = read(phi)
        assert read(phi) is root and getattr(spectrum, name) is root
        with pytest.raises(ValueError):
            root[0, 0] = 1.0
        with pytest.raises(AttributeError):
            setattr(spectrum, name, root.copy())


def test_roots_reject_on_every_read():
    singular = oplin.herm_eig(np.diag([0.0, 1.0]))
    indefinite = oplin.herm_eig(np.diag([-1.0, 1.0]))
    for _ in range(2):
        with pytest.raises(df.Singular, match="smallest eigenvalue 0.000e\\+00 too close to zero"):
            singular.inv_sqrt
        with pytest.raises(df.NotPSD, match="eigenvalue -1.000e\\+00 below clamping threshold"):
            indefinite.sqrt
    assert np.array_equal(singular.sqrt, np.diag([0.0, 1.0]))


def subtracted_theta(phi: Frame, psi: np.ndarray) -> np.ndarray:
    """The annihilator part as first defined: psi minus the family A* S^{-1} phi_k
    (A = T_phi T_psi*), projected onto ker T_phi."""
    k = kernel_basis(phi)
    family = (phi.synthesis @ psi.conj().T).conj().T @ canonical_dual(phi).synthesis
    return k @ (k.conj().T @ (psi - family).conj().T)


@settings(max_examples=40, deadline=None)
@given(t=frames, size=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_theta_is_the_kernel_projection_of_the_partner(t, size, seed):
    """theta = K K* T_psi* equals the subtracted form within 1e-10 of ||T_psi||,
    and _with_mixed(phi, mixed, theta) rebuilds psi at criterion 2's 1e-9 (plus the
    first-order kappa(S) * eps of the mixed operator formed from psi, as above)."""
    phi = Frame(t)
    o = Oracle(t)
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal((phi.dim, phi.dim)) + 1j * rng.standard_normal((phi.dim, phi.dim))
    a = np.eye(phi.dim) + bump * (size / norm(bump))
    built = approx_dual_from_mixed(phi, a, random_annihilator(phi, seed=seed, scale=0.5)).synthesis
    psi = Frame(built.copy())
    scale = norm(built)

    theta = duality._theta_part(phi, psi)
    assert norm(theta - subtracted_theta(phi, built)) <= RECONSTRUCTION_TOL * scale
    rebuilt = duality._with_mixed(phi, mixed_operator(phi, psi), theta).synthesis
    kappa = o.w[-1] / o.w[0]
    assert norm(rebuilt - built) <= (ROUNDTRIP_TOL + 10 * kappa * EPS) * scale


@settings(max_examples=40, deadline=None)
@given(t=frames, size=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_via_dual_matches_the_patched_family(t, size, seed):
    """approx_dual_via_dual, which passes S phi^d_k - phi_k as theta, equals the
    family it once patched, head - phi + S phi^d, within 1e-10 in both modes."""
    phi = Frame(t)
    o = Oracle(t)
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal((phi.dim, phi.dim)) + 1j * rng.standard_normal((phi.dim, phi.dim))
    w = o.inv_sqrt + bump * (0.5 / (np.sqrt(o.w[-1]) * norm(bump)))
    a = np.eye(phi.dim) + bump * (size / norm(bump))
    # an exact dual: the canonical one from the pseudo-inverse of T, whose error grows
    # with kappa(T) = sqrt(kappa(S)) only, plus kernel content
    theta = random_annihilator(phi, seed=seed, scale=0.5).map
    phi_d = Frame((np.linalg.pinv(t) + theta).conj().T)
    tail = frame_operator(phi) @ phi_d.synthesis
    for mode, head in (
        ({"whitened": w}, approx_dual_from_whitened(phi, w)),
        ({"target": a}, approx_dual_from_mixed(phi, a)),
    ):
        patched = head.synthesis - t + tail
        got = approx_dual_via_dual(phi, phi_d, **mode).synthesis
        assert norm(got - patched) <= RECONSTRUCTION_TOL * norm(patched), mode


def test_gabor_pair_keeps_its_theta():
    grid, lat = df.GridSpec(4, 6), df.GaborLattice(1, "1/3")
    g = df.sample_bspline(2, grid)
    phi, psi = gabor_frame(g, lat), gabor_frame(df.ck_dual1(g, 2, lat.b), lat)
    theta = recover_parameters(phi, psi)[1].map
    assert duality._theta_part(phi, psi) is theta
    assert recover_parameters(phi, psi)[1].map is theta
    assert norm(theta - subtracted_theta(phi, psi.synthesis)) <= RECONSTRUCTION_TOL * norm(psi.synthesis)


def test_transfer_leaves_no_pair_record_on_the_perturbed_frame():
    phi, phi_ad = pair_of_frames(4)
    rng = np.random.default_rng(4)
    psi = Frame(phi.synthesis + 1e-3 * rng.standard_normal(phi.synthesis.shape))
    moved = transfer_approx_dual(phi, psi, phi_ad)
    assert moved.mixed_match_residual <= ROUNDTRIP_TOL
    assert len(psi._pairs) == 0


def pair_of_frames(seed: int):
    rng = np.random.default_rng(seed)
    phi = Frame(rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7)))
    theta = random_annihilator(phi, seed=seed, scale=0.5)
    return phi, approx_dual_from_mixed(phi, 0.9 * np.eye(4), theta)


def test_pair_record_dies_with_either_frame():
    phi, phi_ad = pair_of_frames(1)
    recover_parameters(phi, phi_ad)
    partner, record = weakref.ref(phi_ad), weakref.ref(df.frames._pair(phi, phi_ad))
    del phi_ad
    gc.collect()
    assert partner() is None and record() is None
    assert len(phi._pairs) == 0

    phi, phi_ad = pair_of_frames(2)
    classify_pair(phi, phi_ad)
    first, record = weakref.ref(phi), weakref.ref(df.frames._pair(phi, phi_ad))
    del phi
    gc.collect()
    assert first() is None and record() is None


def test_kept_pair_facts_are_read_only():
    phi, phi_ad = pair_of_frames(3)
    kept = (
        classify_pair(phi, phi_ad).corresponding_op,
        mixed_operator(phi, phi_ad),
        recover_parameters(phi, phi_ad)[1].map,
    )
    for arr in kept:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def fresh(phi: Frame) -> Frame:
    return Frame(phi.synthesis.copy())


@settings(max_examples=40, deadline=None)
@given(t=frames, size=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_shared_pair_record_gives_the_verdicts_of_fresh_frames(t, size, seed):
    """Verdicts read through one pair record equal those of fresh copies of the
    frames: bit for bit, but for the transfer, whose ||inv mixed|| is read as
    1 / s_min and is checked against the norm of the inverse at 1e-12."""
    phi = Frame(t)
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal((phi.dim, phi.dim)) + 1j * rng.standard_normal((phi.dim, phi.dim))
    a = np.eye(phi.dim) + bump * (size / norm(bump))
    phi_ad = approx_dual_from_mixed(phi, a, random_annihilator(phi, seed=seed, scale=0.5))
    direction = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
    psi = Frame(t + direction * (1e-3 / norm(direction)))

    shared = [classify_pair(phi, phi_ad), gdual_factorization(phi, phi_ad)]
    moved = transfer_approx_dual(phi, psi, phi_ad)
    theta = recover_parameters(phi, phi_ad)[1]
    alone = [classify_pair(fresh(phi), fresh(phi_ad)), gdual_factorization(fresh(phi), fresh(phi_ad))]
    for mine, theirs in zip(shared, alone):
        assert (mine.kind, mine.rate) == (theirs.kind, theirs.rate)
        assert np.array_equal(mine.corresponding_op, theirs.corresponding_op)
    assert np.array_equal(theta.map, recover_parameters(fresh(phi), fresh(phi_ad))[1].map)

    again = transfer_approx_dual(fresh(phi), fresh(psi), fresh(phi_ad))
    for name in ("smallness", "predicted_diff_bound"):
        mine, theirs = getattr(moved, name), getattr(again, name)
        assert abs(mine - theirs) <= 1e-12 * abs(theirs)
    mixed = t @ phi_ad.synthesis.conj().T
    smallness = norm(t - psi.synthesis) * norm(theta.map) * norm(np.linalg.inv(mixed))
    assert abs(moved.smallness - smallness) <= 1e-12 * smallness
