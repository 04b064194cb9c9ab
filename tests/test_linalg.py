"""Contract tests for the dense linear-algebra layer."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg as sla

import tevsolve
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


class TestSharedFactors:
    def test_two_threads_apply_one_factorization(self):
        # scipy's getrs wrapper shifts the pivot array in place around its call;
        # without a copy per call, two threads on one (lu, piv) corrupt the heap
        # (glibc aborts) or return wrong solutions, so the run is its own process
        code = textwrap.dedent("""
            import threading
            import numpy as np
            from tevsolve import linalg
            rng = np.random.default_rng(0)
            A = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60)) + 60 * np.eye(60)
            B = rng.standard_normal((60, 3)) + 0j
            factors = linalg.lu_factor(A)
            want = linalg.lu_apply(factors, B)
            bad = []
            def work():
                bad.extend(not np.array_equal(linalg.lu_apply(factors, B), want) for _ in range(1000))
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            print(sum(bad))
        """)
        assert _run(code) == "0"


def _run(code: str) -> str:
    """The standard output of code, run in a fresh interpreter on this tevsolve."""
    src = os.path.dirname(os.path.dirname(tevsolve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr[-500:]
    return run.stdout.strip()


class TestBlockDiag:
    SIZES = (5, 4, 4, 3)

    @pytest.fixture
    def pair(self):
        """A BlockDiag and its dense matrix."""
        rng = np.random.default_rng(7)
        blocks = [random_complex(rng, m, m) + 3 * np.eye(m) for m in self.SIZES]
        return linalg.BlockDiag(blocks), sla.block_diag(*blocks)

    def test_products_act_as_the_dense_matrix(self, pair):
        A, dense = pair
        rng = np.random.default_rng(8)
        x, X = random_complex(rng, 16), random_complex(rng, 16, 3)
        assert A.shape == (16, 16)
        assert np.allclose(A @ x, dense @ x, atol=1e-13)
        assert np.allclose(A @ X, dense @ X, atol=1e-13)
        assert np.allclose(A.T @ X, dense.T @ X, atol=1e-13)

    def test_solves_act_as_on_the_dense_matrix(self, pair):
        A, dense = pair
        rng = np.random.default_rng(9)
        B = random_complex(rng, 16, 3)
        factors = linalg.lu_factor(A)
        assert isinstance(factors[0], linalg.BlockDiag) and len(factors[1]) == 4
        for trans in (0, 1):
            X = linalg.lu_apply(factors, B, trans=trans)
            assert np.allclose((dense.T if trans else dense) @ X, B, atol=1e-12)
        # a BlockDiag right-hand side with the same block sizes is solved block by block
        C = linalg.BlockDiag([random_complex(rng, m, m) for m in self.SIZES])
        X = linalg.solve_right(C, A)
        assert isinstance(X, linalg.BlockDiag)
        for x, c, a in zip(X.blocks, C.blocks, A.blocks):
            assert np.allclose(x @ a, c, atol=1e-12)

    def test_svd_keeps_the_blocks_factors(self, pair):
        A, dense = pair
        U, s, W = linalg.svd(A)
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(s, np.linalg.svd(dense, compute_uv=False), rtol=1e-13)
        assert np.allclose(linalg.singular_values(A), s, rtol=1e-14)
        assert U.shape == W.shape == (16, 16)
        assert np.allclose(dense @ W, U * s, atol=1e-12)
        for F in (U, W):
            assert np.allclose(F.conj().T @ F, np.eye(16), rtol=0, atol=1e-14)

    def test_svd_keeps_block_order_for_equal_values(self):
        # the sort is stable: the 3 of the first block comes before the second's
        U, s, W = linalg.svd(linalg.BlockDiag([np.diag([3.0, 1.0]), np.diag([3.0, 2.0])]))
        assert np.array_equal(s, [3.0, 3.0, 2.0, 1.0])
        for F in (U, W):
            assert np.array_equal(np.abs(F), np.eye(4)[:, [0, 2, 3, 1]])

    def test_boundary_integral_run_loads_no_sparse_matrices(self):
        # the block-diagonal M(z) is all that Beyn needs on a symmetric curve
        code = textwrap.dedent("""
            import sys
            from tevsolve.beyn import ContourSpec, beyn_solve
            from tevsolve.bie import HelmholtzNep
            from tevsolve.geometry import parse_shape, sample
            from tevsolve.materials import MaterialParams
            nep = HelmholtzNep(sample(parse_shape("ellipse:a=1,b=1.2"), 64),
                               MaterialParams(4.0, 1.0, 1.0))
            eigs = beyn_solve(nep, ContourSpec(2.5, 0.5, 16))
            print(len(eigs) > 0, "scipy.sparse" in sys.modules)
        """)
        assert _run(code) == "True False"

    def test_pivot_gate_counts_the_stacked_rows_and_whole_norm(self):
        # the third block is singular: its pivot 1 is row 5 + 4 + 1 of the stack,
        # and the gate compares against the norm of all blocks together
        blocks = [np.eye(5), 2 * np.eye(4), np.array([[1.0, 2.0], [2.0, 4.0]])]
        with pytest.raises(SingularMatrix) as exc:
            linalg.lu_factor(linalg.BlockDiag(blocks))
        assert exc.value.pivot_index == 10
        assert exc.value.tol == pytest.approx(1e-14 * np.sqrt(5 + 16 + 25))
