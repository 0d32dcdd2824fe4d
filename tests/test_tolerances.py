"""The numerical policy: every verdict threshold lives in ``dualframes.tolerances``,
and each is tested with one input just inside it and one just outside.

The lint reads every float literal of ``src/`` outside ``tolerances.py``; constant
expressions (``2.0**-1074``) are folded first.  A value below 1e-3 or above 1e3 in
magnitude is a policy value unless it is one of the numerical guards in ``GUARDS``.
The rank cutoff's eps and the Frobenius slack are read from ``np.finfo``, so they
hold no literal.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualframes import duality, gabor, io, tolerances
from dualframes import (
    Annihilator,
    BadCoefficients,
    ContractViolation,
    Frame,
    FrameBounds,
    GaborLattice,
    GridSpec,
    HypothesisViolated,
    NotAFrame,
    NotCommuting,
    NotDualPair,
    NotEquivalent,
    RangeRelation,
    SampledWindow,
    Singular,
    SmallnessViolated,
    approx_dual_from_mixed,
    approx_dual_window,
    canonical_dual,
    ck_dual1,
    ck_dual2,
    classify_pair,
    commutation_check,
    equivalence_inverse,
    frame_bounds,
    frame_operator_inv_sqrt,
    gabor_frame,
    gdual_factorization,
    identity,
    is_frame,
    painless_check,
    random_annihilator,
    range_compare,
    sample_bspline,
    sample_char,
    transfer_approx_dual,
    walnut_weight,
)
from dualframes.cli import main
from dualframes.frames import require_frame

from conftest import random_frame

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dualframes"

# Numerical guards, not verdicts: the floor that keeps a zero norm from dividing by zero,
# and the smallest subnormal, the absolute error of an entry that underflows.
GUARDS = {1e-300, 2.0**-1074}

# Each threshold's boundary test; those outside this file already sat on the boundary.
BOUNDARY_TESTS = {
    "FRAME_THRESHOLD_REL": "test_tolerances.py::test_frame_test_decides_the_inverse_root",
    "COND_CUTOFF": "test_oplin.py::TestInvertibilityGuard::test_far_from_identity_near_the_cutoff",
    "STRICT_FACTOR": "test_tolerances.py::test_strict_factor",
    "SMALLNESS_MARGIN": "test_tolerances.py::test_smallness_margin",
    "DUAL_TOL": "test_tolerances.py::test_dual_tol",
    "ANNIHILATOR_TOL": "test_tolerances.py::test_annihilator_tol",
    "NORM_CARRY_TOL": "test_tolerances.py::test_norm_carry_tol",
    "BESSEL_CHECK_TOL": "test_tolerances.py::test_bessel_check_tol",
    "RANGE_TOL": "test_tolerances.py::test_range_tol",
    "EQUIVALENCE_TOL": "test_tolerances.py::test_equivalence_tol",
    "SUPPORT_TOL": "test_tolerances.py::test_support_tol",
    "PAINLESS_WEIGHT_FLOOR": "test_tolerances.py::test_painless_weight_floor",
    "PAINLESS_MATCH_TOL": "test_tolerances.py::test_painless_match_tol",
    "CK_COEFF_TOL": "test_tolerances.py::test_ck_coeff_tol",
    "COMMUTATOR_TOL": "test_tolerances.py::test_commutator_tol",
}

# One input a thousandth inside the threshold, one a thousandth outside.
SIDES = pytest.mark.parametrize("side, inside", [(1 - 1e-3, True), (1 + 1e-3, False)], ids=["inside", "outside"])


def _constant(node) -> bool:
    """Whether ``node`` is numeric literals joined by operators."""
    return all(
        isinstance(n, (ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator))
        or (isinstance(n, ast.Constant) and type(n.value) in (int, float))
        for n in ast.walk(node)
    )


def policy_literals(source: str) -> list:
    """(line, value) of each float constant expression of magnitude outside [1e-3, 1e3]
    that is not a numerical guard."""
    found = []

    def visit(node):
        if isinstance(node, ast.expr) and _constant(node):
            value = eval(compile(ast.Expression(node), "<literal>", "eval"))
            if isinstance(value, float) and value != 0.0 and not 1e-3 <= abs(value) <= 1e3 and value not in GUARDS:
                found.append((node.lineno, value))
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "tolerances.py"),
                         ids=lambda p: p.name)
def test_no_policy_literal_outside_tolerances(path):
    assert policy_literals(path.read_text(encoding="utf-8")) == []


def test_a_policy_literal_is_found():
    source = "if comm > 1e-9:\n    pass\nx = 1.0 - 1e-12\ny = max(n, 1e-300) * 2.0**-1074 + 1 << 20\nz = 1e4 + 0.5\n"
    assert policy_literals(source) == [(1, 1e-9), (5, 1e4 + 0.5)]


def test_tolerances_imports_nothing_from_the_package():
    tree = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _defined(test_id: str) -> bool:
    """Whether the ``file::Class::function`` path names a definition in the tests."""
    file, *names = test_id.split("::")
    body = ast.parse((TESTS / file).read_text(encoding="utf-8")).body
    for name in names:
        found = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_threshold_has_a_boundary_test():
    names = {name for name, value in vars(tolerances).items() if name.isupper() and isinstance(value, float)}
    assert names == set(BOUNDARY_TESTS)
    assert [test for test in BOUNDARY_TESTS.values() if not _defined(test)] == []


# ---------------------------------------------------------------- conditioning


def _thin_window(v: float) -> SampledWindow:
    """The indicator of [0, 1) on 4:2 with sample 1 set to v: on the lattice (1, 1/2) S is
    diag(2 G), G in {1, v^2}, so s_min / s_max of its system is v."""
    values = sample_char(1, GridSpec(4, 2)).values.copy()
    values[1] = v
    return SampledWindow(GridSpec(4, 2), values)


@SIDES
def test_frame_test_decides_the_inverse_root(side, inside, tmp_path):
    """S^{-1/2} raises Singular exactly when the frame test fails, on a dense and a system
    frame, at s_min / s_max just above and just below 1e-5; approx_dual_window raises
    NotAFrame for a system that fails it, and the CLI exits 2."""
    ratio = math.sqrt(tolerances.FRAME_THRESHOLD_REL) / side
    lat = GaborLattice(1, Fraction(1, 2))
    g = _thin_window(ratio)
    system = gabor_frame(g, lat)
    for phi in (Frame(np.diag([1.0, ratio]) @ np.eye(2, 3)), system, Frame(system.synthesis)):
        assert is_frame(phi) is inside and (frame_bounds(phi).lower > 0.0) is inside
        if inside:
            require_frame(phi)
            assert np.all(np.isfinite(frame_operator_inv_sqrt(phi)))
        else:
            with pytest.raises(NotAFrame):
                require_frame(phi)
            with pytest.raises(Singular, match="too close to zero"):
                frame_operator_inv_sqrt(phi)
    # the painless canonical dual b g / G: an exact dual pair whichever side
    weight = walnut_weight(g, 1).values.real
    g_dual = SampledWindow(g.grid, float(lat.b) * g.values / weight)
    paths = [str(tmp_path / name) for name in ("g.json", "dual.json")]
    io.save_window(g, paths[0])
    io.save_window(g_dual, paths[1])
    argv = ["gabor", "approx-dual", "--window", paths[0], "--dual", paths[1], "--scale-window", "char:1",
            "--a", "1", "--b", "1/2"]
    if inside:
        approx_dual_window(g, g_dual, identity(8), lat)
        assert main(argv) == 0
    else:
        with pytest.raises(NotAFrame):
            approx_dual_window(g, g_dual, identity(8), lat)
        assert main(argv) == 2


@SIDES
def test_strict_factor(side, inside):
    # mixed operator c Id exactly: rate 1 - c, approx below 1 - 1e-12, else g-dual
    c = (1.0 - tolerances.STRICT_FACTOR) / side
    report = classify_pair(Frame(identity(3)), Frame(c * identity(3)))
    assert report.kind == ("approx" if inside else "gdual")


def _smallness_case(product: float):
    """phi = [e1 e2 0], an approximate dual with theta = e3 e1* (norm 1) and mixed operator
    Id, and psi moving phi's third vector to ``product`` e1: the smallness is ``product``."""
    phi = Frame(np.eye(2, 3))
    theta = Annihilator(map=np.array([[0, 0], [0, 0], [1, 0]], dtype=complex), base=phi)
    phi_ad = approx_dual_from_mixed(phi, identity(2), theta)
    return phi, Frame(np.array([[1, 0, product], [0, 1, 0]])), phi_ad


@SIDES
def test_smallness_margin(side, inside):
    product = 1.0 - tolerances.SMALLNESS_MARGIN / side
    phi, psi, phi_ad = _smallness_case(product)
    if inside:
        result = transfer_approx_dual(phi, psi, phi_ad)
        assert result.smallness == pytest.approx(product, abs=1e-15)
        assert result.mixed_match_residual <= 1e-9  # the corrector is still solved
    else:
        with pytest.raises(SmallnessViolated):
            transfer_approx_dual(phi, psi, phi_ad)


# ---------------------------------------------------------------- duality


@SIDES
def test_dual_tol(side, inside):
    """The rate of a pair and the lattice-sum residual of a window pair, at 1e-10."""
    delta = tolerances.DUAL_TOL * side
    assert classify_pair(Frame(identity(3)), Frame((1.0 - delta) * identity(3))).kind == (
        "dual" if inside else "approx")
    grid, lat = GridSpec(6, 6), GaborLattice(1, Fraction(1, 3))
    g = sample_bspline(2, grid)
    # the lattice sum at shift 0 is b (1 + delta / b): residual delta
    g_dual = SampledWindow(grid, ck_dual1(g, 2, lat.b).values * (1.0 + delta / float(lat.b)))
    # a partition of unity of 1 + delta: residual delta
    off = SampledWindow(grid, g.values * (1.0 + delta))
    if inside:
        approx_dual_window(g, g_dual, identity(grid.total), lat)
        ck_dual1(off, 2, lat.b)
    else:
        with pytest.raises(NotDualPair):
            approx_dual_window(g, g_dual, identity(grid.total), lat)
        with pytest.raises(HypothesisViolated, match="partition of unity"):
            ck_dual1(off, 2, lat.b)


@SIDES
def test_annihilator_tol(side, inside):
    # ||T m|| = eta, ||T|| = 1 and ||m|| = sqrt(1 + eta^2) = 1 in floating point
    eta = tolerances.ANNIHILATOR_TOL * side
    phi = Frame(np.eye(2, 3))
    m = np.array([[eta, 0], [0, 0], [1, 0]], dtype=complex)
    if inside:
        Annihilator(map=m, base=phi)
    else:
        with pytest.raises(ContractViolation):
            Annihilator(map=m, base=phi)


@pytest.mark.parametrize("side, inside", [(0.8, True), (1.25, False)], ids=["inside", "outside"])
def test_norm_carry_tol(side, inside, monkeypatch):
    """The norm scaled to is carried where underflow of the entries moves it by less than
    NORM_CARRY_TOL relative, and measured where it could move it more.  Both sides of the
    comparison are subnormal, about 7 units of 2**-1074, so the nearest inputs that fall on
    either side are a unit, 1/7, away."""
    from dualframes import frames

    phi = random_frame(5, 9, seed=31)
    scale = math.sqrt(phi.count * phi.dim) * 2.0**-1074 / tolerances.NORM_CARRY_TOL / side
    measured = []
    norm = frames.operator_norm
    monkeypatch.setattr(frames, "operator_norm", lambda m: measured.append(m) or norm(m))
    random_annihilator(phi, seed=6, scale=scale)
    assert len(measured) == (1 if inside else 2)  # the draw's norm, then the scaled map's


@SIDES
def test_bessel_check_tol(side, inside, monkeypatch):
    # a canonical pair has lambda_max(W W*) = upper(psi) to rounding; the check reads a bound
    # lowered by (1 + BESSEL_CHECK_TOL side), so the excess sits just inside or outside
    phi = random_frame(8, 12, seed=600)
    psi = canonical_dual(phi)
    lower, upper = frame_bounds(psi)
    lowered = upper / (1.0 + tolerances.BESSEL_CHECK_TOL * side)
    monkeypatch.setattr(duality, "frame_bounds", lambda f: FrameBounds(lower, lowered))
    assert gdual_factorization(phi, psi).bessel_bound_ok is inside


@SIDES
def test_range_tol(side, inside):
    # the analysis ranges span (e1, e2) and (e1, c e2 + s e3): the principal angle's sine is s
    s = tolerances.RANGE_TOL * side
    phi = Frame(np.eye(2, 3))
    psi = Frame(np.array([[1, 0, 0], [0, math.sqrt(1 - s * s), s]]))
    assert range_compare(phi, psi) is (RangeRelation.EQUAL if inside else RangeRelation.INCOMPARABLE)


@SIDES
def test_equivalence_tol(side, inside, monkeypatch):
    # psi's canonical dual read (1 + delta) times too long: the product's identity gap is delta
    delta = tolerances.EQUIVALENCE_TOL * side
    phi = Frame.from_vectors([(1, 0), (0, 1), (1, 1)])
    psi = Frame(2.0 * phi.synthesis)
    dual = duality.canonical_dual
    monkeypatch.setattr(duality, "canonical_dual",
                        lambda f: Frame((1.0 + delta) * dual(f).synthesis) if f is psi else dual(f))
    if inside:
        equivalence_inverse(phi, psi)
    else:
        with pytest.raises(NotEquivalent, match="inverse check"):
            equivalence_inverse(phi, psi)


# ---------------------------------------------------------------- Gabor hypotheses


@SIDES
def test_support_tol(side, inside):
    """A sample past the support, and an imaginary part, of SUPPORT_TOL times the peak."""
    grid, b = GridSpec(6, 6), Fraction(1, 3)
    g = sample_bspline(2, grid)
    tail, imag = g.values.copy(), g.values.astype(complex)
    tail[20] = tolerances.SUPPORT_TOL * side
    imag[3] += 1j * tolerances.SUPPORT_TOL * side
    for values, message in ((tail, "support must lie"), (imag, "real-valued")):
        window = SampledWindow(grid, values)
        if inside:
            ck_dual1(window, 2, b)
        else:
            with pytest.raises(HypothesisViolated, match=message):
                ck_dual1(window, 2, b)


@SIDES
def test_painless_weight_floor(side, inside):
    # min G = v^2 against max G = 1
    g = _thin_window(math.sqrt(tolerances.PAINLESS_WEIGHT_FLOOR / side))
    lat = GaborLattice(1, Fraction(1, 2))
    if inside:
        assert painless_check(g, lat, 1).bounds.lower == 0.0  # a report of a family that is no frame
    else:
        with pytest.raises(HypothesisViolated, match="bounded away from 0"):
            painless_check(g, lat, 1)


@SIDES
def test_painless_match_tol(side, inside, monkeypatch):
    # S = diag(G / b) holds to rounding, so the weight the check reads is made off by
    # delta relative, which is the relative error it measures (max G / b = ||S||)
    delta = tolerances.PAINLESS_MATCH_TOL * side
    weight = gabor.walnut_weight
    monkeypatch.setattr(gabor, "walnut_weight",
                        lambda g, a: SampledWindow(g.grid, weight(g, a).values * (1.0 + delta)))
    g, lat = sample_bspline(2, GridSpec(6, 6)), GaborLattice(1, Fraction(1, 3))
    report = painless_check(g, lat, 2)
    assert report.weight_over_step_error == pytest.approx(delta, rel=1e-5)
    assert report.matched_formula == ("weight/b" if inside else "neither")


@SIDES
def test_ck_coeff_tol(side, inside):
    g, b = sample_bspline(2, GridSpec(6, 6)), Fraction(1, 3)
    bf, off = float(b), tolerances.CK_COEFF_TOL * side
    for coeffs in ([0.0, bf * (1.0 + off), 2 * bf], [0.0, bf, 2 * bf * (1.0 - off)]):
        if inside:
            ck_dual2(g, 2, b, coeffs)
        else:
            with pytest.raises(BadCoefficients):
                ck_dual2(g, 2, b, coeffs)


def test_ck_coeffs_are_relative_to_b():
    # zero coefficients fail however small b is; the repr of b and 2b pass
    b = Fraction(1, 10**12)
    with pytest.raises(BadCoefficients, match="a_0"):
        ck_dual2(sample_bspline(1, GridSpec(4, 8)), 1, b, [0.0])
    ck_dual2(sample_bspline(1, GridSpec(4, 8)), 1, b, [repr(float(b))])
    third = Fraction(1, 3)
    ck_dual2(sample_bspline(2, GridSpec(6, 6)), 2, third, ["0.0", repr(float(third)), repr(2 * float(third))])


@SIDES
def test_commutator_tol(side, inside):
    # Id commutes exactly, so the commutator norm of Id + eps B is eps times B's
    grid, lat = GridSpec(6, 6), GaborLattice(1, Fraction(1, 3))
    g = sample_bspline(2, grid)
    g_dual = ck_dual1(g, 2, lat.b)
    bump = np.diag(np.random.default_rng(71).standard_normal(grid.total))
    eps = tolerances.COMMUTATOR_TOL * side / commutation_check(bump, lat, grid)
    a_op = identity(grid.total) + eps * bump
    if inside:
        approx_dual_window(g, g_dual, a_op, lat)
    else:
        with pytest.raises(NotCommuting):
            approx_dual_window(g, g_dual, a_op, lat)
