"""Tests for the dense complex Hermitian linear algebra kernel."""

import numpy as np
import pytest

from embml.linalg import HermitianMatrix, NotPositiveDefinite, hermitian_part


def random_pd(rng, n):
    """A random well-conditioned Hermitian positive definite matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


class TestCholesky:
    def test_identity_factor(self):
        l = HermitianMatrix(np.eye(3)).chol
        np.testing.assert_allclose(l, np.eye(3), atol=1e-14)

    def test_diagonal_factor(self):
        l = HermitianMatrix(np.diag([4.0, 9.0])).chol
        np.testing.assert_allclose(l, np.diag([2.0, 3.0]), atol=1e-14)

    def test_roundtrip_random_pd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_pd(rng, 5)
            l = HermitianMatrix(m).chol
            np.testing.assert_allclose(l @ l.conj().T, m, atol=1e-10)

    def test_not_positive_definite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            HermitianMatrix(np.diag([1.0, -1.0])).chol

    def test_factor_is_cached(self):
        m = HermitianMatrix(np.diag([4.0, 9.0]))
        assert m.chol is m.chol


class TestSolve:
    def test_identity_solve(self):
        b = np.array([1.0 + 2j, -3.0, 0.5j])
        x = HermitianMatrix(np.eye(3)).solve(b)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_diagonal_solve(self):
        x = HermitianMatrix(np.diag([2.0, 4.0])).solve(np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_residual_random_pd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_pd(rng, 6)
            b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            x = HermitianMatrix(m).solve(b)
            assert np.linalg.norm(m @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(12)
        m = random_pd(rng, 4)
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x = HermitianMatrix(m).solve(b)
        np.testing.assert_allclose(m @ x, b, atol=1e-9)


class TestQuadForm:
    def test_identity_e1(self):
        e1 = np.array([1.0, 0.0])
        assert HermitianMatrix(np.eye(2)).quad_form(e1) == pytest.approx(1.0)

    def test_diagonal_e1(self):
        e1 = np.array([1.0, 0.0])
        assert HermitianMatrix(np.diag([4.0, 1.0])).quad_form(e1) == pytest.approx(0.25)

    def test_two_vector_conjugate_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_pd(rng, 5)
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            ab = HermitianMatrix(m).quad_form(a, b)
            ba = HermitianMatrix(m).quad_form(b, a)
            assert ab == pytest.approx(np.conj(ba), rel=1e-10)

    def test_single_vector_is_real(self):
        rng = np.random.default_rng(14)
        m = random_pd(rng, 4)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        val = HermitianMatrix(m).quad_form(a)
        assert isinstance(val, float)
        assert val > 0


class TestLogDet:
    def test_identity(self):
        m = HermitianMatrix(np.eye(5))
        assert m.log_det() == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_e_esq(self):
        m = HermitianMatrix(np.diag([np.e, np.e**2]))
        assert m.log_det() == pytest.approx(3.0, rel=1e-12)

    def test_matches_eigenvalues(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            m = random_pd(rng, 4)
            expected = float(np.sum(np.log(np.linalg.eigvalsh(m))))
            got = HermitianMatrix(m).log_det()
            assert got == pytest.approx(expected, rel=1e-9)


class TestRankOneUpdate:
    def test_zero_weight_is_identity_map(self):
        x = np.array([3.0 + 1j, -2.0])
        out = HermitianMatrix(np.eye(2)).rank_one_update(0.0, x)
        np.testing.assert_allclose(out.mat, np.eye(2), atol=1e-14)

    def test_elementary_outer_product(self):
        e1 = np.array([1.0, 0.0])
        out = HermitianMatrix(np.zeros((2, 2))).rank_one_update(1.0, e1)
        np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_result_hermitian_and_spectrum_bounded_below(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = random_pd(rng, 5)
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            out = HermitianMatrix(m).rank_one_update(0.7, x).mat
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * np.max(np.abs(out))
            lo_before = np.linalg.eigvalsh(m)[0]
            lo_after = np.linalg.eigvalsh(out)[0]
            assert lo_after >= lo_before - 1e-10

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.eye(2)).rank_one_update(-0.5, np.array([1.0, 0.0]))


class TestHermitianMatrixValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_symmetrization_on_construction(self):
        m = HermitianMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        np.testing.assert_allclose(m.mat, [[1.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_hermitian_part(self):
        a = np.array([[1.0, 4.0j], [0.0, 2.0]])
        h = hermitian_part(a)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
