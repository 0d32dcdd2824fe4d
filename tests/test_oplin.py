import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualframes import oplin
from dualframes import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    Singular,
    adjoint,
    herm_eig,
    identity,
    inverse,
    operator_norm,
    psd_inv_sqrt,
    psd_sqrt,
    solve,
)

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


class TestIdentityGap:
    def test_scalar_multiple(self):
        assert oplin.identity_gap(0.9 * identity(3)) == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("m", [[[0.6, 0.1]], [[0.6], [0.5]], np.zeros(2)])
    def test_rejects_non_square(self, m):
        # a 1x2 matrix once broadcast against the 1x1 identity into a number
        with pytest.raises(DimensionMismatch):
            oplin.identity_gap(m)


class TestSolve:
    def test_matches_inverse(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rhs = rng.standard_normal((4, 2))
        assert np.allclose(solve(m, rhs), inverse(m) @ rhs, atol=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            solve(np.zeros((2, 2)), np.ones(2))
