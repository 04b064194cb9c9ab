"""Contract tests for the dense linear-algebra layer."""

import numpy as np
import pytest

from tevsolve import linalg
from tevsolve.errors import SingularMatrix


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def solve(A, B):
    """A X = B the way Beyn's node solves do it: one LU, then one apply."""
    return linalg.lu_apply(linalg.lu_factor(A), B)


class TestLuSolve:
    def test_identity(self):
        rng = np.random.default_rng(0)
        B = random_complex(rng, 3, 2)
        assert np.allclose(solve(np.eye(3), B), B, rtol=0, atol=1e-15)

    def test_diagonal(self):
        A = np.diag([2.0, 1j])
        B = np.array([[2.0], [1j]])
        X = solve(A, B)
        assert np.allclose(X, np.ones((2, 1)), atol=1e-15)

    def test_recovers_known_solution(self):
        rng = np.random.default_rng(1)
        A = random_complex(rng, 20, 20)
        X = random_complex(rng, 20, 4)
        B = A @ X
        got = solve(A, B)
        resid = np.linalg.norm(A @ got - B)
        assert resid <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(got)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        A = random_complex(rng, 30, 30) + 5 * np.eye(30)
        inv = solve(A, np.eye(30))
        assert np.linalg.norm(A @ inv - np.eye(30)) <= 1e-9

    def test_singular_reports_pivot(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrix) as exc:
            solve(A, np.eye(2))
        assert exc.value.pivot_index == 1

    def test_solve_right(self):
        rng = np.random.default_rng(3)
        A = random_complex(rng, 15, 15) + 4 * np.eye(15)
        B = random_complex(rng, 15, 15)
        X = linalg.solve_right(B, A)
        assert np.linalg.norm(X @ A - B) <= 1e-10 * np.linalg.norm(B)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            solve(np.eye(3), np.ones((2, 1)))


class TestSvd:
    def test_zero_matrix(self):
        _, s, _ = linalg.svd(np.zeros((4, 3)))
        assert np.all(s == 0)

    def test_unitary_has_unit_singular_values(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(random_complex(rng, 4, 4))
        _, s, _ = linalg.svd(Q)
        assert np.allclose(s, 1.0, atol=1e-13)

    def test_permuted_diagonal(self):
        A = np.diag([3.0, 2.0, 1.0])[[2, 0, 1]]
        _, s, _ = linalg.svd(A)
        assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for n, m in ((8, 8), (64, 32), (256, 256)):
            A = random_complex(rng, n, m)
            U, s, V = linalg.svd(A)
            resid = np.linalg.norm(A - (U * s) @ V.conj().T)
            assert resid <= 1e-10 * np.linalg.norm(A)
            assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])) <= 1e-12 * n
            assert np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1])) <= 1e-12 * n
            assert np.all(np.diff(s) <= 0)


class TestEigDense:
    def test_diagonal(self):
        vals = linalg.eig_dense(np.diag([1.0, 2.0 + 1j]))
        assert sorted(vals, key=lambda z: z.real) == pytest.approx([1.0, 2.0 + 1j])

    def test_jordan_like_triangular(self):
        vals = np.sort_complex(linalg.eig_dense(np.array([[2.0, 1.0], [0.0, 2.0]])))
        assert np.allclose(vals, [2.0, 2.0], atol=1e-8)

    def test_companion_matrix_roots(self):
        # z^2 - 3z + 2 = (z - 1)(z - 2); companion matrix eigenvalues are the roots
        C = np.array([[0.0, -2.0], [1.0, 3.0]])
        vals = np.sort_complex(linalg.eig_dense(C))
        assert np.allclose(vals, [1.0, 2.0], atol=1e-10)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(6)
        A = random_complex(rng, 12, 12)
        perm = rng.permutation(12)
        P = np.eye(12)[perm]
        v1 = np.sort_complex(linalg.eig_dense(A))
        v2 = np.sort_complex(linalg.eig_dense(P @ A @ P.T))
        assert np.allclose(v1, v2, atol=1e-8 * np.linalg.norm(A))
