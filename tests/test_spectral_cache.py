"""The cached spectral facts of a Frame against a dense numpy oracle.

A Frame reads every spectral fact (eigenvalues, roots, canonical dual, rank,
the projection onto ker T) from one thin SVD of T.  Each is compared with the
same quantity recomputed from scratch with plain ``np.linalg`` on the formed
``S = T T*`` (an ``eigh``, an LU solve, a pseudo-inverse), at the acceptance
suite's pinned tolerances: 1e-10 for bounds, roots, the canonical dual and
the kernel projector, 1e-9 for recovered parameters.

Frames come in three families: random redundant frames, square Riesz
bases and near-singular frames with a prescribed condition number of S
up to 1e8.  Forming S rounds its smallest eigenvalue by about
eps * lambda_max, so anything the oracle derives from S^{-1} or S^{-1/2} is
only known to relative accuracy kappa(S) * eps, above the pinned
tolerances at kappa(S) = 1e8.  Those facts are therefore checked through
residuals that need no inverse of the formed S, at the pinned tolerances:
the canonical dual through its defining equation S D = T, S^{-1/2} through
the whitening residual ||S^{-1/2} T T* S^{-1/2} - Id|| and
||S^{1/2} S^{-1/2} - Id||, and each whitened factor W of a mixed operator M
through ||S^{1/2} W - M||.  Rebuilding a family from its recovered whitened
factor multiplies by S^{1/2} and then by S^{-1}, so that round trip is
allowed a first-order kappa(S) * eps on top of the pinned tolerance.
"""

import gc
import weakref
from collections import Counter
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
    mixed_operator,
    random_annihilator,
    recover_parameters,
    transfer_approx_dual,
)
from oracle import kernel_basis

RECONSTRUCTION_TOL = 1e-10  # criterion 1
ROUNDTRIP_TOL = 1e-9  # criterion 2
EPS = np.finfo(float).eps


def norm(m, _norm=np.linalg.norm) -> float:
    """The 2-norm, bound at import so that the counting tests do not count it."""
    return float(_norm(m, 2))


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
        self.kappa = self.w[-1] / self.w[0]


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
    whitened = inv_sqrt @ t
    assert norm(whitened @ whitened.conj().T - np.eye(phi.dim)) <= RECONSTRUCTION_TOL
    assert norm(frame_operator_sqrt(phi) @ inv_sqrt - np.eye(phi.dim)) <= RECONSTRUCTION_TOL
    dual = canonical_dual(phi).synthesis
    assert norm(o.s @ (dual - o.dual)) <= RECONSTRUCTION_TOL * norm(t)
    assert phi.spectrum.rank == phi.dim
    projector = phi.spectrum.kernel_part(np.eye(phi.count, dtype=complex))
    assert norm(projector - o.kernel_projector) <= RECONSTRUCTION_TOL
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
    root = frame_operator_sqrt(phi)
    assert norm(root @ w_back - mixed) <= ROUNDTRIP_TOL * norm(mixed)
    assert norm(theta_back.map - theta.map) <= ROUNDTRIP_TOL * scale
    again = approx_dual_from_whitened(phi, w_back, theta_back)
    assert norm(again.synthesis - built.synthesis) <= (ROUNDTRIP_TOL + 10 * o.kappa * EPS) * scale

    factor = gdual_factorization(phi, built)
    assert norm(root @ factor.whitened - mixed) <= RECONSTRUCTION_TOL * norm(mixed)


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
    tol = (RECONSTRUCTION_TOL + 10 * o.kappa * EPS) * norm(built)
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
        # written after the bounds are cached, and with them the spectrum
        arr[:] = 0.0
        fresh = Frame(original)
        assert np.array_equal(phi.synthesis, original)
        assert frame_bounds(phi) == bounds == frame_bounds(fresh)
        assert np.array_equal(canonical_dual(phi).synthesis, canonical_dual(fresh).synthesis)
        assert np.array_equal(phi.spectrum.classes[0][3], fresh.spectrum.classes[0][3])  # V*

    def test_synthesis_and_cached_facts_are_read_only(self):
        phi = Frame(np.arange(6.0).reshape(2, 3) + np.eye(2, 3))
        canonical_dual(phi)
        spectrum = phi.spectrum
        for arr in (phi.synthesis, phi.eigenvalues, *spectrum.classes[0], spectrum.s, *spectrum.range_rows):
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


class Decompositions:
    """Every ``numpy.linalg`` decomposition taken while installed, by kind and shape.

    ``svd`` records the kind "thin", "full" or "values" (``compute_uv=False``),
    ``norm(a, 2)`` the kind "norm2", and ``eigh``, ``eigvalsh``, ``inv``, ``solve``,
    ``qr`` and ``pinv`` their names, with the shape of one matrix: a call on a stack
    of matrices is one record.  Each record keeps its operand, so :meth:`of` names
    the decompositions of one array, of a view of it or of the array it views.  ``wide`` lists every operand
    or result of these calls with ``rows`` rows and more than ``cols`` columns.
    """

    SVD_CLASS = ("thin", "full", "values", "norm2")

    def __init__(self, monkeypatch, rows=None, cols=None):
        self.records, self.wide = [], []
        self._rows, self._cols = rows, cols
        for name in ("eigh", "eigvalsh", "inv", "solve", "qr", "pinv"):
            kind_of = lambda *args, name=name, **kwargs: name  # noqa: E731
            monkeypatch.setattr(np.linalg, name, self._watch(kind_of, getattr(np.linalg, name)))
        monkeypatch.setattr(np.linalg, "svd", self._watch(self._svd_kind, np.linalg.svd))
        monkeypatch.setattr(np.linalg, "norm", self._watch(self._norm_kind, np.linalg.norm))

    @staticmethod
    def _svd_kind(a, full_matrices=True, compute_uv=True, **kwargs):
        return ("full" if full_matrices else "thin") if compute_uv else "values"

    @staticmethod
    def _norm_kind(x, ord=None, *args, **kwargs):
        return "norm2" if ord == 2 and np.ndim(x) >= 2 else None

    def _watch(self, kind_of, fn):
        def wrapper(*args, **kwargs):
            kind = kind_of(*args, **kwargs)
            if kind is not None:
                self.records.append((kind, np.shape(args[0])[-2:], args[0]))
            out = fn(*args, **kwargs)
            for a in (*args, *(out if isinstance(out, tuple) else (out,))):
                if getattr(a, "ndim", 0) >= 2 and a.shape[-2] == self._rows and a.shape[-1] > self._cols:
                    self.wide.append((kind, a.shape))
            return out

        return wrapper

    def census(self) -> Counter:
        return Counter((kind, shape) for kind, shape, _ in self.records)

    def svd_class(self) -> int:
        return sum(kind in self.SVD_CLASS for kind, _, _ in self.records)

    def of(self, a) -> list:
        owner = a if a.base is None else a.base  # a frame over a factor holds a view of it
        return [kind for kind, _, operand in self.records if owner is operand or owner is getattr(operand, "base", None)]


def run_pipeline():
    """The 64x96 finite-frame pipeline of a benchmark task; returns phi, phi_ad and psi."""
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
    return phi, phi_ad, psi


def test_pipeline_decomposes_each_frame_once(monkeypatch):
    """The 64x96 finite-frame pipeline takes 13 SVD-class calls and decomposes each
    frame once: one thin SVD for phi and for psi, whose vectors it reads, and one
    values-only SVD for phi_ad, which it reads only for its upper bound, each of the
    one-class factor's transpose (n x d).

    The other ten are the operator norm of the scaled draw (n x d), the values-only
    SVDs of the transposes of three d x n factors (theta* and the two Bessel
    differences), the values-only SVDs of five d x d blocks, read for their norms (the
    two pairs' Id - M, their rates, the factorization residual, W, and the transfer's
    mixed match), and the pair's singular values, from its block.  The annihilator checks and the transfer's corrector are
    certified without an SVD.  No ``eigh``, ``eigvalsh`` or full SVD runs, and no call
    takes or returns an array with n rows and more than d columns (a kernel basis or an
    n x n factor).  The canonical duals of phi and psi are each built once, however
    many constructions read them.
    """
    d, n = 64, 96
    seen = Decompositions(monkeypatch, rows=n, cols=d)
    calls = {"canonical_dual": 0}
    build = cached_property(counted(calls, "canonical_dual", Frame._canonical_dual.func))
    build.__set_name__(Frame, "_canonical_dual")
    monkeypatch.setattr(Frame, "_canonical_dual", build)

    phi, phi_ad, psi = run_pipeline()

    assert seen.census() == Counter({
        ("thin", (n, d)): 2,
        ("values", (n, d)): 5,
        ("values", (d, d)): 6,
        ("inv", (d, d)): 1,
        ("solve", (d, d)): 1,
    })
    assert seen.svd_class() == 13 and seen.wide == []
    assert seen.of(phi.synthesis) == seen.of(psi.synthesis) == ["thin"]
    assert seen.of(phi_ad.synthesis) == ["values"] and "spectrum" not in phi_ad.__dict__
    assert calls["canonical_dual"] <= 2  # phi and psi
    dual = canonical_dual(phi)
    assert canonical_dual(phi) is dual and not dual.synthesis.flags.writeable
    with pytest.raises(AttributeError):
        dual.synthesis = phi.synthesis


@pytest.mark.parametrize("first", ["bounds", "spectrum", "require_frame"])
def test_the_first_read_sets_the_svd(first, monkeypatch):
    """The bounds, the eigenvalues and the frame test read first take the singular
    values only; the spectrum or require_frame read first take the thin SVD, and every
    fact comes from it.  The vectors read after the values take a second, thin SVD,
    and the values already read are kept."""
    seen = Decompositions(monkeypatch)
    rng = np.random.default_rng(8)
    phi = Frame(rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8)))
    if first == "bounds":
        bounds, eigenvalues = frame_bounds(phi), phi.eigenvalues
        assert df.is_frame(phi) and seen.of(phi.synthesis) == ["values"]
        assert "spectrum" not in phi.__dict__
        canonical_dual(phi)
        assert seen.of(phi.synthesis) == ["values", "thin"]
        assert frame_bounds(phi) == bounds and phi.eigenvalues is eigenvalues
        return
    if first == "spectrum":
        phi.spectrum
    else:
        df.frames.require_frame(phi)
    frame_bounds(phi), canonical_dual(phi), frame_operator_inv_sqrt(phi)
    assert seen.of(phi.synthesis) == ["thin"]
    assert phi._singular_values is phi.spectrum.s


def test_cli_takes_every_frame_through_one_svd_at_most(tmp_path, monkeypatch, capsys):
    """frame-info, dual (canonical, and approx with and without theta), verify and
    perturb decompose each frame they load or build at most once."""
    from dualframes import io
    from dualframes.cli import main

    rng = np.random.default_rng(12)
    t = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    phi = Frame(t)
    phi_ad = approx_dual_from_mixed(phi, 0.9 * np.eye(6), random_annihilator(phi, seed=1, scale=0.3))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("phi", "psi", "phi_ad", "op")}
    io.save_frame(phi, paths["phi"])
    io.save_frame(Frame(t + 1e-3 * rng.standard_normal(t.shape)), paths["psi"])
    io.save_frame(phi_ad, paths["phi_ad"])
    io.save_operator(0.9 * np.eye(6), paths["op"])

    frames, load, adopt = [], io.load_frame, Frame._adopt.__func__

    def loaded(path):
        frames.append(load(path))
        return frames[-1]

    def adopted(cls, syn):
        frames.append(adopt(cls, syn))
        return frames[-1]

    monkeypatch.setattr(io, "load_frame", loaded)
    monkeypatch.setattr(Frame, "_adopt", classmethod(adopted))
    seen = Decompositions(monkeypatch)
    op = ["--mode", "approx", "--op-file", paths["op"]]
    for argv in (
        ["frame-info", paths["phi"]],
        ["dual", paths["phi"]],
        ["dual", paths["phi"], *op],
        ["dual", paths["phi"], *op, "--theta", "random:3:0.5"],
        ["verify", paths["phi"], paths["phi_ad"]],
        ["perturb", paths["phi"], paths["psi"], paths["phi_ad"]],
    ):
        frames.clear()
        assert main(argv) == 0, argv
        counts = [len(seen.of(frame.synthesis)) for frame in frames]
        assert max(counts) == 1, (argv, counts)  # phi's, in every command
    capsys.readouterr()


def test_pipeline_reads_each_pair_fact_once(monkeypatch):
    """The pair (phi, phi_ad) is read by the classification, the factorization,
    parameter recovery and the transfer; its facts are computed once.

    The block gap ``||Id - M||`` runs twice: for the rate of (phi, phi_ad), which its
    constructor checks and the classification reads, and for the rate of the
    rebuilt family, which its constructor checks.  The one ``inv`` is the pair's
    corresponding operator; theta* is built once, as a factor: one projection off
    range(T*), made by the first ``_theta_part`` call that finds no theta on the pair's
    record, and its norm (``ClassFactor.norm``) is taken once, which the
    recovered Annihilator and the transfer read.
    """
    calls = {"gap": 0, "theta_build": 0}
    monkeypatch.setattr(oplin.LatticeOperator, "gap", counted(calls, "gap", oplin.LatticeOperator.gap))
    seen = Decompositions(monkeypatch)
    theta_part, thetas, normed = duality._theta_part, [], []

    def build(phi, partner):
        calls["theta_build"] += df.frames._pair(phi, partner).theta is None
        thetas.append(theta_part(phi, partner))
        return thetas[-1]

    def factor_norm(factor, _norm=oplin.ClassFactor.norm):
        normed.append(factor)
        return _norm(factor)

    monkeypatch.setattr(duality, "_theta_part", build)
    monkeypatch.setattr(perturbation, "_theta_part", build)
    monkeypatch.setattr(oplin.ClassFactor, "norm", factor_norm)

    run_pipeline()

    assert calls["gap"] == 2
    assert seen.census()[("inv", (64, 64))] == 1
    assert calls["theta_build"] == 1
    assert len(thetas) == 2 and thetas[0] is thetas[1]  # recovery and the transfer
    assert sum(m is thetas[0] for m in normed) == 1


def test_pipeline_builds_each_root_once(monkeypatch):
    """S^{1/2} and S^{-1/2} are kept on phi's spectrum, as blocks: the factorization, the
    whitened construction and parameter recovery read one build of each."""
    built = {"root": [], "inv_root": []}
    for name in built:
        root = getattr(oplin.Spectrum, name).func

        def build(spectrum, name=name, root=root):
            built[name].append(spectrum)
            return root(spectrum)

        kept = cached_property(build)
        kept.__set_name__(oplin.Spectrum, name)
        monkeypatch.setattr(oplin.Spectrum, name, kept)

    phi = run_pipeline()[0]

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
    """S^{-1/2} of a rank-deficient T raises the same Singular on every read; S^{1/2}
    needs no check, as the singular values are never negative."""
    singular = oplin.Spectrum.of(np.diag([1.0, 0.0]).astype(complex))
    short = oplin.Spectrum.of(np.ones((2, 1), dtype=complex))  # d > n: s is padded with 0
    for _ in range(2):
        for spectrum in (singular, short):
            with pytest.raises(df.Singular, match="smallest singular value 0.000e\\+00 too close to zero"):
                spectrum.inv_sqrt
    assert np.array_equal(singular.sqrt, np.diag([1.0, 0.0]))
    assert np.allclose(short.sqrt, np.ones((2, 2)) / np.sqrt(2.0), atol=1e-15)


def subtracted_theta(phi: Frame, psi: np.ndarray) -> np.ndarray:
    """The annihilator part as first defined: psi minus the family A* S^{-1} phi_k
    (A = T_phi T_psi*), projected onto ker T_phi."""
    k = kernel_basis(phi)
    family = (phi.synthesis @ psi.conj().T).conj().T @ canonical_dual(phi).synthesis
    return k @ (k.conj().T @ (psi - family).conj().T)


@settings(max_examples=40, deadline=None)
@given(t=frames, size=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_theta_is_the_kernel_projection_of_the_partner(t, size, seed):
    """theta = K K* T_psi* (held as its factor theta*) equals the subtracted form within
    1e-10 of ||T_psi||, and _with_mixed(phi, mixed, theta) rebuilds psi at criterion 2's 1e-9 (plus the
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
    assert norm(theta.synthesis().conj().T - subtracted_theta(phi, built)) <= RECONSTRUCTION_TOL * scale
    rebuilt = duality._with_mixed(phi, df.frames._pair(phi, psi).mixed, theta).synthesis
    assert norm(rebuilt - built) <= (ROUNDTRIP_TOL + 10 * o.kappa * EPS) * scale


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
    # an exact dual: the library's canonical one plus kernel content
    theta = random_annihilator(phi, seed=seed, scale=0.5).map
    phi_d = Frame(canonical_dual(phi).synthesis + theta.conj().T)
    tail = frame_operator(phi) @ phi_d.synthesis
    for mode, head in (
        ({"whitened": w}, approx_dual_from_whitened(phi, w)),
        ({"target": a}, approx_dual_from_mixed(phi, a)),
    ):
        patched = head.synthesis - t + tail
        got = approx_dual_via_dual(phi, phi_d, **mode).synthesis
        assert norm(got - patched) <= RECONSTRUCTION_TOL * norm(patched), mode


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(2, 3), (7, 13)]),
    log_kappa=st.floats(0.0, 9.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonical_dual_is_dual_up_to_kappa_1e9_5(shape, log_kappa, seed):
    """U diag(1/s) V* carries the error of kappa(T) = sqrt(kappa(S)), so the library's
    own canonical dual reads "dual" (rate <= 1e-10) against its frame over kappa(S) up
    to 10^9.5, well inside the frames accepted (kappa(S) < 1e10)."""
    dim, count = shape
    phi = Frame(synthesis_matrix("near_singular", dim, count - dim, log_kappa, seed))
    assert classify_pair(phi, canonical_dual(phi)).kind == "dual"


@settings(max_examples=40, deadline=None)
@given(t=frames, size=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1), k=st.integers(-300, 300))
def test_pair_verdicts_are_exact_under_scaling(t, size, seed, k):
    """(phi 2^k, psi 2^-k) has the mixed operator of (phi, psi) bit for bit, so the same
    kind, rate and Bessel verdict, and every bound scales by exactly 4^k or 4^-k.  For
    these frames |k| <= 300 keeps every entry and bound a normal float."""
    phi = Frame(t)
    rng = np.random.default_rng(seed)
    bump = rng.standard_normal((phi.dim, phi.dim)) + 1j * rng.standard_normal((phi.dim, phi.dim))
    a = np.eye(phi.dim) + bump * (size / norm(bump))
    psi = approx_dual_from_mixed(phi, a, random_annihilator(phi, seed=seed, scale=0.5))
    big, small = Frame(t * 2.0**k), Frame(psi.synthesis * 2.0**-k)
    for verdict in (classify_pair, gdual_factorization):
        mine, theirs = verdict(big, small), verdict(fresh(phi), fresh(psi))
        assert (mine.kind, mine.rate, mine.bessel_bound_ok) == (theirs.kind, theirs.rate, theirs.bessel_bound_ok)
    assert frame_bounds(big) == tuple(b * 4.0**k for b in frame_bounds(phi))
    assert frame_bounds(small) == tuple(b * 4.0**-k for b in frame_bounds(psi))


def test_gabor_pair_keeps_its_theta():
    grid, lat = df.GridSpec(4, 6), df.GaborLattice(1, "1/3")
    g = df.sample_bspline(2, grid)
    phi, psi = gabor_frame(g, lat), gabor_frame(df.ck_dual1(g, 2, lat.b), lat)
    theta = recover_parameters(phi, psi)[1]
    assert duality._theta_part(phi, psi) is theta._star  # theta*, a factor with phi's classes
    assert theta._star.shares_classes(phi._system)
    assert recover_parameters(phi, psi)[1]._star is theta._star
    assert norm(theta.map - subtracted_theta(phi, psi.synthesis)) <= RECONSTRUCTION_TOL * norm(psi.synthesis)


def test_pair_keeps_its_whitened_factor():
    """gdual_factorization and recover_parameters read one S^{-1/2} mixed, kept on the pair."""
    phi, phi_ad = pair_of_frames(5)
    whitened = gdual_factorization(phi, phi_ad).whitened
    assert recover_parameters(phi, phi_ad)[0] is whitened
    assert gdual_factorization(phi, phi_ad).whitened is whitened


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
        recover_parameters(phi, phi_ad)[0],
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
