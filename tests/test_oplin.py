import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualframes import oplin
from dualframes import (
    DimensionMismatch,
    GaborLattice,
    GridSpec,
    Singular,
    adjoint,
    identity,
    inverse,
    mixed_lattice_operator,
    operator_norm,
    sample_bspline,
    solve,
)

from oracle import NotHermitian, NotPSD, herm_eig, psd_inv_sqrt, psd_sqrt

SYM = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3 (char. poly x^2-4x+3)


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, 3.0])) == pytest.approx(3.0)

    def test_nilpotent_shift(self):
        assert operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0)

    def test_symmetric_2x2(self):
        assert operator_norm(SYM) == pytest.approx(3.0, abs=1e-12)

    def test_zero_iff_zero(self):
        assert operator_norm(np.zeros((3, 2))) == 0.0
        assert operator_norm([[0, 1e-300]]) > 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            operator_norm([[np.nan, 0], [0, 1]])

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            operator_norm(np.zeros(3))

    @settings(deadline=None, max_examples=30)
    @given(
        arrays(
            np.float64,
            (3, 4),
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
    def test_adjoint_invariance(self, m):
        assert operator_norm(m) == pytest.approx(operator_norm(adjoint(m)), abs=1e-10)

    def test_submultiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


class TestHermEig:
    def test_identity(self):
        spec = herm_eig(identity(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_symmetric_2x2(self):
        spec = herm_eig(SYM)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_scalar(self):
        assert herm_eig([[5.0]]).eigenvalues[0] == pytest.approx(5.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = m + adjoint(m)
        spec = herm_eig(m)
        assert operator_norm(spec.reconstruct() - m) <= 1e-10 * operator_norm(m)
        gram = adjoint(spec.eigenvectors) @ spec.eigenvectors
        assert operator_norm(gram - identity(5)) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_inexact_hermitian_input_is_judged_by_the_tolerance(self):
        # ||SYM|| = 3; a defect d at one entry gives relative drift d / 3
        roundoff = SYM.astype(complex)
        roundoff[0, 1] += 1e-14
        assert np.allclose(herm_eig(roundoff).eigenvalues, [1.0, 3.0], atol=1e-12)
        defect = SYM.astype(complex)
        defect[0, 1] += 1e-11
        with pytest.raises(NotHermitian):
            herm_eig(defect)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            herm_eig(np.zeros((2, 3)))


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(psd_sqrt(identity(4)), identity(4))

    def test_symmetric_2x2_closed_form(self):
        # from the (1, 3) eigendecomposition: (1/2) [[r+1, r-1], [r-1, r+1]], r = sqrt(3)
        r = np.sqrt(3.0)
        expected = 0.5 * np.array([[r + 1, r - 1], [r - 1, r + 1]])
        assert np.allclose(psd_sqrt(SYM), expected, atol=1e-12)

    def test_square_reconstructs(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        m = a @ adjoint(a)  # PSD, rank 3
        root = psd_sqrt(m)
        assert operator_norm(root @ root - m) <= 1e-9 * operator_norm(m)

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = a @ adjoint(a) + identity(5)
        root = psd_sqrt(m)
        assert operator_norm(root @ m - m @ root) <= 1e-9 * operator_norm(m) ** 1.5

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([-1.0, 1.0]))

    def test_clamps_roundoff_negatives(self):
        root = psd_sqrt(np.diag([-1e-16, 1.0]))
        assert root[0, 0] == 0.0


class TestPsdInvSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1 / 3]))

    def test_identity(self):
        assert np.allclose(psd_inv_sqrt(identity(3)), identity(3))

    def test_whitens(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a @ adjoint(a) + identity(4)
        w = psd_inv_sqrt(m)
        assert operator_norm(w @ m @ w - identity(4)) <= 1e-8

    def test_inverse_of_sqrt(self):
        w = psd_inv_sqrt(SYM)
        assert operator_norm(w @ psd_sqrt(SYM) - identity(2)) <= 1e-12

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            psd_inv_sqrt(np.diag([0.0, 1.0]))


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(identity(3)), identity(3))

    def test_diagonal(self):
        assert np.allclose(inverse(np.diag([2.0, 1.0])), np.diag([0.5, 1.0]))

    def test_adjugate_2x2(self):
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(inverse(SYM), expected, atol=1e-13)

    def test_product_is_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert operator_norm(m @ inverse(m) - identity(5)) <= 1e-9

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            inverse([[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            inverse(np.zeros((2, 3)))

    def test_overflowing_inverse_raises(self):
        # kappa = 1 passes the guard; the inverse 1e320 Id does not fit a float
        with pytest.raises(ValueError, match="non-finite entries"):
            inverse(1e-320 * identity(3))

    def test_returns_a_new_writeable_array(self, monkeypatch):
        kept = []
        block_inverse = oplin.LatticeOperator.inverse
        monkeypatch.setattr(oplin.LatticeOperator, "inverse", lambda x: kept.append(block_inverse(x)) or kept[-1])
        m = np.diag([2.0, 4.0]).astype(complex)
        result = inverse(m)
        (_, blocks), = kept[0].groups
        assert result.flags.writeable and not np.shares_memory(result, blocks)
        assert not np.shares_memory(result, m)
        result[0, 0] = 7.0
        assert np.array_equal(blocks[0], np.diag([0.5, 0.25])) and np.array_equal(inverse(m), blocks[0])


class TestIdentityGap:
    """||Id - X|| is a block value's ``gap``; a matrix reaches it through ``LatticeOperator.of``,
    after the square check of :func:`oplin.inverse`."""

    def test_scalar_multiple(self):
        assert oplin.LatticeOperator.of(0.9 * identity(3)).gap() == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("m", [[[0.6, 0.1]], [[0.6], [0.5]], np.zeros(2)])
    def test_rejects_non_square(self, m):
        # a 1x2 matrix once broadcast against the 1x1 identity into a number
        with pytest.raises(DimensionMismatch):
            oplin.inverse(m)


class TestSolve:
    def test_matches_inverse(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rhs = rng.standard_normal((4, 2))
        assert np.allclose(solve(m, rhs), inverse(m) @ rhs, atol=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            solve(np.zeros((2, 2)), np.ones(2))

    def test_overflowing_solution_raises(self):
        with pytest.raises(ValueError, match="non-finite entries"):
            solve(1e-320 * identity(3), np.ones(3))

    @pytest.mark.parametrize("rhs", [np.ones(2), np.ones((2, 3)), np.ones((4, 1)), np.ones((3, 1, 1)), 1.0])
    def test_right_hand_side_of_another_height_is_a_dimension_mismatch(self, rhs):
        with pytest.raises(DimensionMismatch, match="right-hand side of shape"):
            solve(identity(3), rhs)

    @pytest.mark.parametrize("rhs", [np.arange(3.0), np.arange(6.0).reshape(3, 2)])
    def test_solution_has_the_shape_of_the_right_hand_side(self, rhs):
        x = solve(2.0 * identity(3), rhs)
        assert x.shape == rhs.shape and x.flags.writeable and np.array_equal(x, rhs / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_right_hand_side(self, bad):
        with pytest.raises(ValueError, match="right-hand side has non-finite entries"):
            solve(identity(3), [bad, 0.0, 0.0])


class TestKeptFacts:
    """A block value is immutable: it computes each of its facts once and keeps it."""

    def test_repeated_reads_return_the_kept_object(self, monkeypatch):
        value = oplin.LatticeOperator.of(np.diag([2.0, 0.5, 1.0]).astype(complex))
        first = value.gap(), value.singular_values(), value.inverse()

        def refused(*args, **kwargs):
            raise AssertionError("a kept fact was computed again")

        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, refused)
        again = value.gap(), value.singular_values(), value.inverse()
        assert all(a is b for a, b in zip(first, again))

    @pytest.mark.parametrize("m, message", [
        (np.zeros((2, 2)), "matrix is identically zero"),
        (np.diag([1.0, 1e-13]), "condition number 1.000e+13 exceeds cutoff"),
    ])
    def test_a_singular_value_raises_the_same_error_on_every_call(self, m, message):
        value = oplin.LatticeOperator.of(m.astype(complex))
        for _ in range(3):
            with pytest.raises(Singular) as err:
                value.inverse()
            assert str(err.value) == message
        with pytest.raises(Singular) as err:
            value.solve(oplin.ClassFactor.of(np.ones((2, 1), dtype=complex)))
        assert str(err.value) == message


class TestDenseReads:
    """A block value reads as its d x d matrix: ``shape``, ``np.asarray`` and ``@`` by a
    vector, which goes block by block; ``@`` by a matrix or a vector of another length is
    refused, not read by broadcasting."""

    def test_a_vector_is_applied_block_by_block(self):
        grid, lat = GridSpec(4, 6), GaborLattice(1, "1/3")
        value = mixed_lattice_operator(sample_bspline(2, grid), sample_bspline(3, grid), lat)
        dense = np.asarray(value)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(grid.total) + 1j * rng.standard_normal(grid.total)
        assert len(value.groups) == 1 and value.groups[0][0].shape[0] > 1  # several classes
        assert value.shape == dense.shape == (grid.total, grid.total)
        assert np.max(np.abs(value @ v - dense @ v)) <= 1e-12 * np.max(np.abs(dense @ v))
        for bad in (dense, v[:-1], v[:, None]):
            with pytest.raises(DimensionMismatch):
                value @ bad


def _scaled_map(shape, rank_one, exponent, seed):
    rng = np.random.default_rng(seed)
    gauss = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)  # noqa: E731
    m = np.outer(gauss(shape[0]), gauss(shape[1])) if rank_one else gauss(*shape)
    return m / np.max(np.abs(m)) * 10.0**exponent  # peak entry 10^exponent


# Bounds around the norm: 1 ulp and a few widths on each side, and far off.
NEAR = [-1, 1, -1e-14, 1e-14, -1e-12, 1e-12, -1e-9, 1e-9, -0.5, 1.0]


def _bound_near(exact: float, step: float) -> float:
    if step in (-1, 1):
        return float(np.nextafter(exact, np.inf if step > 0 else -np.inf))
    return exact * (1.0 + step)


class TestNormCertificate:
    """``LatticeOperator.at_most(bound)`` passes on the Frobenius norm where it shows
    the bound and asks the operator norm otherwise; its verdict is that of
    ``operator_norm(m) <= bound`` at every scale, with no warning."""

    @settings(deadline=None, max_examples=200)
    @given(
        shape=st.sampled_from([(1, 1), (2, 3), (5, 4), (9, 6)]),
        rank_one=st.booleans(),
        exponent=st.sampled_from([0, -170, 150, -305, -310, -318]),
        seed=st.integers(0, 2**32 - 1),
        step=st.sampled_from(NEAR),
    )
    def test_verdict_is_the_operator_norms(self, shape, rank_one, exponent, seed, step):
        m = _scaled_map(shape, rank_one, exponent, seed)
        exact = operator_norm(m)
        for bound in (_bound_near(exact, step), float(np.linalg.norm(m)), 5e-324, 1e-310):
            assert oplin.LatticeOperator.of(m).at_most(bound) == (exact <= bound), bound

    def test_rank_one_within_one_ulp_is_decided_by_the_operator_norm(self, monkeypatch):
        m = oplin.LatticeOperator.of(_scaled_map((4, 4), True, 0, 7))
        exact = m.norm()
        asked = []
        monkeypatch.setattr(oplin.LatticeOperator, "norm", lambda a: asked.append(a) or exact)
        assert m.at_most(np.nextafter(exact, np.inf))
        assert not m.at_most(np.nextafter(exact, -np.inf))
        assert len(asked) == 2
        assert m.at_most(1.001 * exact) and len(asked) == 2  # certified

    @pytest.mark.parametrize("bound", [0.0, 5e-324, 1.0])
    def test_zero_map(self, bound):
        assert oplin.LatticeOperator.of(np.zeros((3, 2), dtype=complex)).at_most(bound)
        assert not oplin.LatticeOperator.of(np.zeros((3, 2), dtype=complex)).at_most(-5e-324)

    def test_overflowing_product_raises_value_error(self):
        big = oplin.ClassFactor.of(np.full((2, 2), 1e200, dtype=complex))
        with pytest.raises(ValueError, match="non-finite entries"):
            big.blocks(big)


def _svd_guard(m):
    """The guard as judged on the singular values alone, written out here so that the
    library's certificate is checked against a reference of its own: Singular when
    s_min <= s_max / COND_CUTOFF, with the library's messages."""
    a = np.asarray(m, dtype=complex)
    s = np.linalg.svd(a, compute_uv=False)
    smax, smin = float(s[0]), float(s[-1])
    if smin <= smax / oplin.COND_CUTOFF:
        if smax == 0.0:
            raise Singular("matrix is identically zero")
        raise Singular(f"condition number {smax / max(smin, 1e-300):.3e} exceeds cutoff")
    return a


def _same_outcome(m):
    """inverse and solve agree with the SVD guard: equal arrays or equal Singular messages."""
    rhs = np.arange(1.0, 1.0 + len(m))
    try:
        expected = np.linalg.inv(_svd_guard(m)), np.linalg.solve(_svd_guard(m), rhs.astype(complex))
    except Singular as err:
        for op in (lambda: inverse(m), lambda: solve(m, rhs)):
            with pytest.raises(Singular) as got:
                op()
            assert str(got.value) == str(err)
        return "singular"
    assert np.array_equal(inverse(m), expected[0])
    assert np.array_equal(solve(m, rhs), expected[1])
    return "invertible"


class TestInvertibilityGuard:
    """Near the identity the guard is certified from ||a - Id||_F < (C - 1)/(C + 1);
    every verdict, result and message equals that of the SVD guard."""

    RADIUS = (oplin.COND_CUTOFF - 1.0) / (oplin.COND_CUTOFF + 1.0)

    @pytest.mark.parametrize(
        "width, verdict",
        [(1 - 1e-13, "invertible"), (1 - 1e-9, "invertible"), (0.5, "invertible"),
         (1 + 5e-13, "invertible"), (1 + 1e-12, "singular"), (1 + 2e-12, "singular")],
    )
    def test_rank_one_step_across_the_radius(self, width, verdict):
        # a = diag(1 - delta, 1, 1): ||a - Id||_F = delta, kappa = 1 / |1 - delta|
        delta = width * self.RADIUS
        assert _same_outcome(np.diag([1.0 - delta, 1.0, 1.0])) == verdict

    @pytest.mark.parametrize("width", [1 - 1e-9, 1 + 1e-9, 1.5])
    def test_random_step_across_the_radius(self, width):
        rng = np.random.default_rng(5)
        step = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = np.eye(4) + step * (width * self.RADIUS / np.linalg.norm(step))
        assert _same_outcome(m) == "invertible"

    def test_certified_guard_takes_no_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", svd)
        m = np.eye(3) + 0.1 * np.ones((3, 3))
        assert np.array_equal(inverse(m), np.linalg.inv(m))

    @pytest.mark.parametrize("kappa", [1.001e12, 1.0001e12, 0.999e12])
    def test_far_from_identity_near_the_cutoff(self, kappa):
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m = (u * np.array([5.0, 2.0, 5.0 / kappa])) @ v
        assert _same_outcome(m) == ("singular" if kappa > 1e12 else "invertible")

    def test_zero_matrix(self):
        assert _same_outcome(np.zeros((2, 2))) == "singular"
        with pytest.raises(Singular, match="identically zero"):
            inverse(np.zeros((2, 2)))
