"""Boundary-operator discretization: circle-mode oracles, kernel structure,
the assembled eigenvalue matrix, and resonance detection."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp

from tevsolve import bie, linalg, special
from tevsolve.beyn import BeynConfig, ContourSpec, beyn_solve
from tevsolve.bie import (
    HelmholtzNep,
    assemble_adjoint_double_layer,
    assemble_single_layer,
    neumann_trace_matrix,
)
from tevsolve.errors import ConfigError, GeometryError, InteriorResonance
from tevsolve.geometry import make_curve, parse_shape, sample
from tevsolve.materials import MaterialParams
from tevsolve.testing import bessel_j_positive_root, circle_mode_symbol

EX34 = MaterialParams(n=4.0, eta=-0.01, lam=2.0)


@pytest.fixture(scope="module")
def circle128():
    return sample(parse_shape("circle:r=1"), 128)


class TestSingleLayer:
    def test_circle_modes(self, circle128):
        # Fourier modes diagonalize the circulant circle matrix; the discrete
        # eigenvalue must match (i pi / 2) J_m(k) H1_m(k) from the addition
        # theorem for the fundamental solution.
        k = 2.0
        S = assemble_single_layer(circle128, k)
        for m in range(6):
            mode = np.exp(1j * m * circle128.t)
            ref = 0.5j * np.pi * sp.jv(m, k) * sp.hankel1(m, k)
            assert np.max(np.abs(S @ mode - ref * mode)) <= 1e-8

    def test_constant_density_value(self, circle128):
        k = 1.3
        S = assemble_single_layer(circle128, k)
        ref = 0.5j * np.pi * sp.jv(0, k) * sp.hankel1(0, k)
        assert np.allclose(S @ np.ones(128), ref, atol=1e-12)

    def test_symmetric_on_circle(self, circle128):
        S = assemble_single_layer(circle128, 2.0)
        assert np.max(np.abs(S - S.T)) <= 1e-14

    def test_wavenumber_validation(self, circle128):
        with pytest.raises(ConfigError):
            assemble_single_layer(circle128, -2.0)

    def test_holomorphic_in_k(self, circle128):
        # entrywise Cauchy-Riemann check by finite differences; analyticity in
        # the wavenumber is what the contour eigensolver relies on
        k, h = 2.0 + 0.3j, 1e-5
        d_re = (assemble_single_layer(circle128, k + h)
                - assemble_single_layer(circle128, k - h)) / (2 * h)
        d_im = (assemble_single_layer(circle128, k + 1j * h)
                - assemble_single_layer(circle128, k - 1j * h)) / (2j * h)
        assert np.max(np.abs(d_re - d_im)) <= 1e-6


class TestAdjointDoubleLayer:
    def test_circle_modes(self, circle128):
        # interior Neumann trace of the single-layer field
        k = 2.0
        A = neumann_trace_matrix(circle128, k)
        for m in range(6):
            mode = np.exp(1j * m * circle128.t)
            ref = 0.5j * np.pi * k * sp.jvp(m, k) * sp.hankel1(m, k)
            assert np.max(np.abs(A @ mode - ref * mode)) <= 1e-8

    def test_static_limit_row_sums(self, circle128):
        # The single layer of the constant density on the unit circle is
        # constant inside, so its interior normal derivative tends to zero
        # with k; at k = 0.01 the exact value is (i pi k / 2) J0'(k) H1_0(k).
        k = 0.01
        A = neumann_trace_matrix(circle128, k)
        sums = A @ np.ones(128)
        ref = 0.5j * np.pi * k * sp.jvp(0, k) * sp.hankel1(0, k)
        assert np.allclose(sums, ref, atol=1e-10)
        assert np.max(np.abs(sums)) <= 1e-3

    def test_holomorphic_in_k(self, circle128):
        k, h = 1.5 + 0.2j, 1e-5
        d_re = (assemble_adjoint_double_layer(circle128, k + h)
                - assemble_adjoint_double_layer(circle128, k - h)) / (2 * h)
        d_im = (assemble_adjoint_double_layer(circle128, k + 1j * h)
                - assemble_adjoint_double_layer(circle128, k - 1j * h)) / (2j * h)
        assert np.max(np.abs(d_re - d_im)) <= 1e-6


class TestQuadratureData:
    def test_coincident_nodes_rejected(self):
        # the unit circle traced twice: node j and node j + 16 coincide
        twice = make_curve("trig", xc=(0, 0, 1), xs=(0, 0, 0), yc=(0, 0, 0), ys=(0, 0, 1))
        s = sample(twice, 32)
        for assemble in (assemble_single_layer, assemble_adjoint_double_layer):
            with pytest.raises(GeometryError):
                assemble(s, 2.0)

    def test_too_few_nodes_rejected(self):
        s = sample(parse_shape("circle:r=1"), 12)
        for assemble in (assemble_single_layer, assemble_adjoint_double_layer):
            with pytest.raises(ConfigError):
                assemble(s, 2.0)

    def test_cached_arrays_untouched_by_assembly(self):
        s = sample(parse_shape("kite"), 32)
        first = [assemble_single_layer(s, 1.5 + 0.1j), assemble_adjoint_double_layer(s, 1.5 + 0.1j)]
        copies = [a.copy() for a in first]
        assemble_single_layer(s, 2.5 - 0.2j)
        assemble_adjoint_double_layer(s, 2.5 - 0.2j)
        for a, b in zip(first, copies):
            assert np.array_equal(a, b)
        assert np.array_equal(assemble_single_layer(s, 1.5 + 0.1j), copies[0])
        # built once per sample, its only cache
        assert s.nystrom is s.nystrom
        assert vars(s).keys() - {f.name for f in dataclasses.fields(s)} == {"nystrom"}
        for cached in (*s.nystrom[:4], *s.nystrom[4]):
            assert not cached.flags.writeable


ASYMMETRIC = make_curve("trig", xc=(0.1, 1.0, 0.2, 0.05), xs=(0.0, 0.1, 0.07, 0.0),
                        yc=(0.0, 0.15, 0.0, 0.03), ys=(0.05, 1.1, -0.1, 0.02))


def _log_split_reference(s, k):
    """S_k and K^T_k by the log split as first written: each kernel split as
    smooth * log + rest, the smooth part weighted by R, the rest by the trapezoid
    rule, with table=None, from the nodes and normals alone.  R_l and the log
    factor are taken at l = min(|i - j|, n - |i - j|), as geometry's table is:
    K^T_k cancels above the real axis, and a table rounded otherwise moves it by
    up to 9e-14 of its largest entry at k = 1 + 1.5i."""
    n, speed, h = s.n, s.speeds, 2.0 * np.pi / s.n
    l = np.arange(n)
    m = np.arange(1, n // 2)
    w = -(4.0 * np.pi / n) * (np.cos(2.0 * np.pi * np.outer(l, m) / n) / m).sum(axis=1)
    d = np.abs(l[:, None] - l[None, :])
    d = np.minimum(d, n - d)
    weights = (w - (4.0 * np.pi / n**2) * np.cos(np.pi * l))[d]
    log = np.log(4.0 * np.sin(np.pi * d / n) ** 2 + np.eye(n))

    def split(smooth, full, smooth_diag, rest_diag):
        rest = full - smooth * log
        np.fill_diagonal(smooth, smooth_diag)
        np.fill_diagonal(rest, rest_diag)
        return weights * smooth + h * rest

    d = s.points[:, None, :] - s.points[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1]) + np.eye(n)
    z = k * r
    limit = (0.25j - np.euler_gamma / (2.0 * np.pi) - np.log(k * speed / 2.0) / (2.0 * np.pi))
    S = split(-(1.0 / (4.0 * np.pi)) * special.bessel_j(0, z) * speed,
              0.25j * special.hankel1(0, z) * speed, -(1.0 / (4.0 * np.pi)) * speed, limit * speed)
    g = np.einsum("ik,ijk->ij", s.normals, d) / r * speed
    K = split((k / (4.0 * np.pi)) * special.bessel_j(1, z) * g,
              -(0.25j * k) * special.hankel1(1, z) * g, 0.0, -s.curvatures * speed / (4.0 * np.pi))
    return S, K


class TestSymmetricKernels:
    INPUTS = [("ellipse:a=1,b=1.2", 120), ("ellipse:a=1,b=1.2", 240), ("kite", 64),
              ("circle:r=1", 240), ("ellipse:a=1,b=1.2", 122), ("trig", 240),
              ("circle:r=0.3", 240)]  # under unit diameter the diagonal's 1 is r_max
    KS = (1.3 + 0.2j, 2.7 - 0.15j, 4.1 + 0.05j, 0.6 + 0.4j, 1.0 + 1.5j)

    @staticmethod
    def _sample(shape, n):
        # "trig" has no mirror symmetry
        return sample(ASYMMETRIC if shape == "trig" else parse_shape(shape), n)

    @pytest.mark.parametrize("shape, n", INPUTS)
    def test_classes_hold_the_kernel_argument_bitwise(self, shape, n):
        # special's fold contract: z = k (r + I) is bitwise constant on each class,
        # and the representatives ascend in radius, so the last is at rho_max
        s = self._sample(shape, n)
        reps, inverse = s.nystrom[4][:2]
        rho = np.take(s.nystrom[0], reps)
        assert np.all(np.diff(rho) > 0) and rho[-1] == s.nystrom[0].max()
        for k in self.KS:
            z = k * s.nystrom[0]
            assert np.array_equal(np.take(z, reps)[inverse], z)

    @pytest.mark.parametrize("shape, n", INPUTS)
    def test_fold_leaves_operators_bitwise_equal(self, shape, n, monkeypatch):
        # the operators assembled from Amos on each class of the kernel table
        # (the fit switched off) equal those with table=None; the fit is held to
        # the log split's bounds by test_fused_assembly_matches_the_log_split
        s = self._sample(shape, n)
        monkeypatch.setattr(special, "_fitted", lambda *args: None)

        def operators(fold):
            monkeypatch.setattr(bie, "hankel1",
                                lambda m, z, table, out: special.hankel1(m, z, fold, out))
            monkeypatch.setattr(bie, "bessel_j",
                                lambda m, z, table, out: special.bessel_j(m, z, fold, out))
            nep = HelmholtzNep(s, EX34)
            return [(assemble_single_layer(s, k), assemble_adjoint_double_layer(s, k),
                     *nep(k).blocks) for k in self.KS]

        for with_fold, without in zip(operators(s.nystrom[4]), operators(None)):
            for a, b in zip(with_fold, without):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape, n", INPUTS)
    def test_fused_assembly_matches_the_log_split(self, shape, n, node_matrix):
        s = self._sample(shape, n)
        for k in self.KS:
            S, K = _log_split_reference(s, k)
            for got, want in ((assemble_single_layer(s, k), S),
                              (assemble_adjoint_double_layer(s, k), K)):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            P = linalg.solve_right(0.5 * np.eye(s.n) + K, S)
            got = node_matrix(bie._trace_ratio(s, k, bie._mirror_classes(s)))
            assert np.max(np.abs(got - P)) <= 1e-13 * np.max(np.abs(P))

    @pytest.mark.parametrize("shape, n", INPUTS)
    def test_table_kernels_match_amos(self, shape, n, amos_points):
        # the fit, not its fallback (fit nodes only), within 1e-14 of each
        # kernel's largest value, from near k = 0 to |k| diam ~ 15
        s = self._sample(shape, n)
        z0 = s.nystrom[0]
        for k in (0.06 + 0.04j, 0.6 + 0.4j, 1.3 + 0.2j, 2.7 - 0.15j, 4.1 + 0.05j, 6.0 - 0.5j):
            for kernel in (special.bessel_j, special.hankel1):
                for m in (0, 1):
                    want = kernel(m, k * z0)
                    amos_points.clear()
                    got = kernel(m, k * z0, table=s.nystrom[4])
                    assert set(amos_points) == {special.FIT_DEGREE + 1}
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_beyond_the_fit_the_fold_is_direct(self, amos_points):
        # |z_max| = 48, past the fit's degree, and im(z_max) = 7.2, where J_m
        # and Y_m dwarf H1_m = J_m + i Y_m: the fit is tried, then Amos runs on
        # the class representatives, bitwise as without a table; the 34 classes
        # of the circle at N = 32 skip the fit
        large = self._sample("ellipse:a=1,b=1.2", 240)
        small = self._sample("circle:r=1", 32)
        both = (special.bessel_j, special.hankel1)
        for s, k, kernels, tried in ((large, 20.0 + 0.5j, both, True),
                                     (large, 1.0 + 3.0j, (special.hankel1,), True),
                                     (small, 2.7 - 0.15j, both, False)):
            z = k * s.nystrom[0]
            for kernel in kernels:
                for m in (0, 1):
                    amos_points.clear()
                    got = kernel(m, z, table=s.nystrom[4])
                    assert amos_points[-1] == len(s.nystrom[4][0])
                    assert (len(amos_points) > 1) == tried
                    assert np.array_equal(got, kernel(m, z))

    def test_amos_points_per_assembly_are_the_fit_nodes(self, amos_points):
        # J_m at the 41 fit nodes, then for H1_m J_m and K_m there; with Amos
        # on each class each kernel takes the 7,261 class representatives, and
        # without a table all n^2 = 57,600 points
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 240)
        nodes = special.FIT_DEGREE + 1
        for assemble in (assemble_single_layer, assemble_adjoint_double_layer):
            amos_points.clear()
            assemble(s, 2.7 - 0.15j)
            assert amos_points == [nodes, nodes, nodes]


class TestAssembleM:
    def test_circle_mode_eigenvalues_match_symbol(self):
        s = sample(parse_shape("circle:r=1"), 256)
        k = 2.0
        M = HelmholtzNep(s, EX34)(k)
        for m in range(5):
            mode = np.exp(1j * m * s.t)
            ref = circle_mode_symbol(m, k, EX34)
            assert np.max(np.abs(M @ mode - ref * mode)) <= 1e-6

    def test_near_singular_at_published_root(self):
        s = sample(parse_shape("circle:r=1"), 120)
        M = HelmholtzNep(s, EX34)(3.4567)
        sv = linalg.singular_values(M)
        assert sv[-1] <= 1e-3 * sv[0]

    def test_identical_media_give_zero_operator(self, node_matrix):
        s = sample(parse_shape("circle:r=1"), 64)
        p = MaterialParams(n=1.0, eta=0.0, lam=1.0)
        M = HelmholtzNep(s, p)(1.7)
        assert np.linalg.norm(node_matrix(M)) <= 1e-10

    def test_interior_resonance_detected(self):
        # k at the first Dirichlet wavenumber of the unit disk makes S_k singular
        s = sample(parse_shape("circle:r=1"), 96)
        with pytest.raises(InteriorResonance):
            HelmholtzNep(s, MaterialParams(1.0, -0.01, 2.0))(bessel_j_positive_root(0, 1))

    def test_cross_validation_against_determinant(self):
        # smallest singular value of M dips below 1e-6 * ||M|| exactly at the
        # determinant roots, and nowhere nearby
        s = sample(parse_shape("circle:r=1"), 120)
        for root in (0.72083, 2.151602):  # published mode-1 and mode-4 roots
            sv = linalg.singular_values(HelmholtzNep(s, EX34)(root))
            assert sv[-1] <= 1e-4 * sv[0]
        sv = linalg.singular_values(HelmholtzNep(s, EX34)(1.45))
        assert sv[-1] >= 1e-3 * sv[0]

    def test_self_convergence_on_kite(self):
        # doubling the node count leaves the smallest singular value unchanged
        # to 1e-8 at k = 2 (discretization already converged)
        vals = []
        for n in (120, 240):
            s = sample(parse_shape("kite"), n)
            sv = linalg.singular_values(HelmholtzNep(s, EX34)(2.0))
            vals.append(sv[-1])
        assert abs(vals[0] - vals[1]) <= 1e-8


class TestHelmholtzNep:
    def test_matches_direct_assembly(self, node_matrix):
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 64)
        nep = HelmholtzNep(s, EX34)
        z = 1.2 + 0.1j

        def trace_ratio(k):
            return linalg.solve_right(neumann_trace_matrix(s, k), assemble_single_layer(s, k))

        ref = EX34.lam * trace_ratio(z * EX34.sqrt_n) - trace_ratio(z) - EX34.eta * np.eye(s.n)
        assert np.allclose(node_matrix(nep(z)), ref, atol=1e-13)

    def test_sample_tables_built_before_the_pool(self):
        # the pool's threads then only read them, and never build them twice
        s = sample(parse_shape("kite"), 32)
        HelmholtzNep(s, EX34)
        assert "nystrom" in vars(s)

    def test_matrix_bitwise_equal_to_the_identity_form(self):
        # M(z) is formed in place, block by block; its bits, signed zeros
        # included, are those of lam P_w - P_v - eta I
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 64)
        for params in (EX34, MaterialParams(n=2.0, eta=0.3, lam=0.5)):
            nep = HelmholtzNep(s, params)
            for z in (1.2 + 0.1j, 2.5 - 0.05j):
                P_w, P_v = nep._ratio(z * params.sqrt_n), nep._ratio(z)
                for got, w, v in zip(nep(z).blocks, P_w.blocks, P_v.blocks):
                    want = params.lam * w - v - params.eta * np.eye(len(v))
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_copies_share_one_unbounded_memo(self, trace_ratios):
        # a ratio built through one copy is a hit for the others, and nothing
        # is evicted by a budget: only retain drops ratios
        s = sample(parse_shape("circle:r=1"), 32)
        nep = HelmholtzNep(s, EX34)
        other = nep.with_params(MaterialParams(n=4.0, eta=-0.01, lam=3.0))
        zs = [1.1 + 0.1j * j for j in range(6)]
        for z in zs:
            other(z)
        for z in reversed(zs):
            nep(z)
        # 24 lookups, 12 builds: the second pass is all hits
        assert sorted(trace_ratios, key=abs) == sorted(
            [k for z in zs for k in (z, z * EX34.sqrt_n)], key=abs)
        assert other._ratios is nep._ratios and len(nep._ratios) == 12

    def test_retain_keeps_the_ratios_of_the_given_points(self, trace_ratios):
        # a study point's residual and polish ratios go; its contour nodes stay
        s = sample(parse_shape("circle:r=1"), 32)
        nep = HelmholtzNep(s, EX34)
        nodes, one_off = [1.1 + 0.1j, 1.3 - 0.1j], [1.2 + 0.05j]
        nep.prefetch(nodes + one_off, 1)
        nep.with_params(MaterialParams(n=4.0, eta=0.5, lam=3.0)).retain(nodes)
        assert sorted(nep._ratios, key=abs) == sorted(
            [k for z in nodes for k in (z, z * EX34.sqrt_n)], key=abs)
        for z in nodes:
            nep(z)
        assert len(trace_ratios) == 6

    def test_prefetch_builds_each_trace_ratio_once(self, trace_ratios):
        s = sample(parse_shape("circle:r=1"), 32)
        zs = [1.5 + 0.1j, 1.7, 1.5 + 0.1j]
        nep = HelmholtzNep(s, EX34)
        nep.prefetch(zs, 2)
        assert sorted(trace_ratios, key=abs) == [1.5 + 0.1j, 1.7, 3.0 + 0.2j, 3.4]
        for z in zs:
            nep(z)
        assert len(trace_ratios) == 4

    def test_prefetch_on_two_threads_is_bitwise_that_on_one(self):
        # the kernel table's matrix products and fits run on the pool's threads
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 120)
        zs = list(ContourSpec(2.5, 0.5, 8).nodes())
        neps = [HelmholtzNep(s, EX34) for _ in range(2)]
        for nep, jobs in zip(neps, (1, 2)):
            nep.prefetch(zs, jobs)
        for z in zs:
            for a, b in zip(neps[0](z).blocks, neps[1](z).blocks, strict=True):
                assert np.array_equal(a, b)

    def test_cache_shared_across_parameters(self, node_matrix):
        s = sample(parse_shape("circle:r=1"), 64)
        nep = HelmholtzNep(s, EX34)
        nep(1.5)
        other = nep.with_params(MaterialParams(n=4.0, eta=-0.01, lam=3.0))
        assert other._ratios is nep._ratios
        # lam enters only as a scalar weight: M_lam3 - M_lam2 = P_w
        d = node_matrix(other(1.5)) - node_matrix(nep(1.5))
        s1 = assemble_single_layer(s, 1.5 * EX34.sqrt_n)
        a1 = neumann_trace_matrix(s, 1.5 * EX34.sqrt_n)
        p_w = linalg.solve_right(a1, s1)
        assert np.allclose(d, p_w, atol=1e-12)


def _bitwise_equal(got: linalg.BlockDiag, want: linalg.BlockDiag) -> bool:
    return all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
               for a, b in zip(got.blocks, want.blocks, strict=True))


class TestWorkspaces:
    @pytest.mark.parametrize("shape, n", [("ellipse:a=1,b=1.2", 240), ("trig", 240)])
    def test_reuse_leaves_a_built_ratio_bitwise_unchanged(self, shape, n):
        # the next ratio built in a workspace leaves the last one as a fresh build
        # gives it, also where the one block is the whole matrix (trig)
        s = TestSymmetricKernels._sample(shape, n)
        classes, work = bie._mirror_classes(s), np.empty((4, n, n), complex)
        first = bie._trace_ratio(s, 1.3 + 0.2j, classes, work)
        bie._trace_ratio(s, 2.7 - 0.15j, classes, work)
        assert not any(np.shares_memory(block, work) for block in first.blocks)
        assert _bitwise_equal(first, bie._trace_ratio(s, 1.3 + 0.2j, classes))
        # S_k and I/2 + K^T_k of the last ratio are the workspace's
        assert np.array_equal(work[2], assemble_single_layer(s, 2.7 - 0.15j))
        assert np.array_equal(work[3], neumann_trace_matrix(s, 2.7 - 0.15j))

    def test_prefetch_on_two_threads_makes_at_most_two(self):
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 64)
        nep = HelmholtzNep(s, EX34)
        other = nep.with_params(MaterialParams(n=4.0, eta=-0.01, lam=3.0))
        other.prefetch(list(ContourSpec(2.5, 0.5, 16).nodes()), 2)
        assert len(nep._ratios) == 32
        # every workspace is back in the shared list once its ratio is built
        assert other._workspaces is nep._workspaces and 1 <= len(nep._workspaces) <= 2

    def test_threads_never_share_a_workspace(self):
        # more threads than cores, switching often: two ratios built in one
        # workspace at once would differ from those built one by one
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 64)
        zs = list(ContourSpec(2.5, 0.5, 32).nodes())
        serial, threaded = HelmholtzNep(s, EX34), HelmholtzNep(s, EX34)
        serial.prefetch(zs, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded.prefetch(zs, 4)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(threaded._workspaces) <= 4
        assert all(_bitwise_equal(threaded._ratios[k], ratio) for k, ratio in serial._ratios.items())

    def test_ratio_after_an_interior_resonance_is_bitwise_right(self):
        s = sample(parse_shape("circle:r=1"), 96)
        nep = HelmholtzNep(s, MaterialParams(1.0, -0.01, 2.0))
        with pytest.raises(InteriorResonance):
            nep._ratio(bessel_j_positive_root(0, 1))
        assert len(nep._workspaces) == 1
        assert _bitwise_equal(nep._ratio(1.3 + 0.2j), bie._trace_ratio(s, 1.3 + 0.2j, nep._classes))

    def test_a_ratio_allocates_under_two_matrices(self):
        # tracemalloc sees numpy's data: with the tables, the classes and a
        # workspace built, one more ratio peaks below twice one N x N complex
        # matrix (without a workspace, at 5.6 times one)
        nep = HelmholtzNep(sample(parse_shape("ellipse:a=1,b=1.2"), 240), EX34)
        nep._ratio(1.3 + 0.2j)
        tracemalloc.start()
        try:
            nep._ratio(2.7 - 0.15j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * 240**2


class _NodeBasisNep:
    """M(z) in the basis of the nodes, from whole N x N trace ratios: the family
    as it was before the class basis, for comparison."""

    def __init__(self, s, params, ratios):
        self.s, self.params, self.dim, self._ratios = s, params, s.n, ratios

    def _ratio(self, k):
        if k not in self._ratios:
            self._ratios[k] = linalg.solve_right(neumann_trace_matrix(self.s, k),
                                                 assemble_single_layer(self.s, k))
        return self._ratios[k]

    def __call__(self, z):
        p = self.params
        return p.lam * self._ratio(z * p.sqrt_n) - self._ratio(z) - p.eta * np.eye(self.dim)


class TestClassBasis:
    @pytest.mark.parametrize("shape, n, sizes", [
        ("ellipse:a=1,b=1.2", 240, [61, 60, 60, 59]),
        ("ellipse:a=1,b=1.2", 122, [31, 30, 31, 30]),
        ("kite", 120, [61, 59]),
        ("circle:r=1", 32, [9, 8, 8, 7]),
        ("trig", 240, [240]),
    ])
    def test_class_sizes(self, shape, n, sizes):
        # the mirror maps i -> -i and i -> N/2 - i: both for the ellipse and the
        # circle, the first for the kite, none for the asymmetric trig curve,
        # whose one block is M(z) itself
        s = TestSymmetricKernels._sample(shape, n)
        classes, basis = bie._mirror_classes(s)
        M = HelmholtzNep(s, EX34)(1.3 + 0.2j)
        assert [len(b) for b in M.blocks] == [len(c[0]) for c in classes] == sizes
        assert (basis is None) == (M.basis is None) == (len(sizes) == 1)
        if basis is not None:
            basis = basis.toarray()
            assert np.array_equal(M.basis.toarray(), basis)
            # the blocks are gathered from the first N/4 + 1 rows (N/2 + 1 for the kite)
            assert max(max(c[0]) for c in classes) == n // len(sizes)
            assert np.allclose(basis.T @ basis, np.eye(n), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape, n", [("ellipse:a=1,b=1.2", 240), ("ellipse:a=1,b=1.2", 122),
                                          ("kite", 120), ("circle:r=1", 32)])
    def test_blocks_are_the_class_basis_form(self, shape, n):
        # S_k and I/2 + K^T_k commute with the mirror maps bitwise, so Q^T A Q is
        # block diagonal: its blocks are the gathered ones, and the rest is the
        # rounding of the dense product, far below the blocks' own
        s = TestSymmetricKernels._sample(shape, n)
        classes = bie._mirror_classes(s)
        Q = classes[1].toarray()
        entries = {2 ** -0.5, 1.0} if len(classes[0]) == 2 else {0.5, 2 ** -0.5}
        assert set(np.round(np.abs(Q[Q != 0]), 15)) == {round(e, 15) for e in entries}
        for k in (1.3 + 0.2j, 2.7 - 0.15j):
            for A in (assemble_single_layer(s, k), neumann_trace_matrix(s, k)):
                dense, row = Q.T @ A @ Q, 0
                for block in bie._class_blocks(A, classes).blocks:
                    m = len(block)
                    assert np.max(np.abs(dense[row:row + m, row:row + m] - block)) <= (
                        1e-15 * np.max(np.abs(A)))
                    dense[row:row + m, row:row + m] = 0.0
                    row += m
                assert np.max(np.abs(dense)) <= 1e-15 * np.max(np.abs(A))

    def test_block_beyn_matches_node_basis_beyn(self):
        # criterion 5's contour and probes, at N = 120: the class basis is
        # orthogonal, so the moments' singular values, the rank and the reduced
        # matrix are those of the node basis up to rounding, and so are the
        # eigenvalues, doubles included
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 120)
        contour, cfg = ContourSpec(2.5, 0.5, 24), BeynConfig(probe_columns=24)
        family, ratios = HelmholtzNep(s, MaterialParams(4.0, 1.0, 1.0)), {}
        for lam in (0.875, 1.0, 1.125):
            params = MaterialParams(4.0, 1.0, lam)
            got = beyn_solve(family.with_params(params), contour, cfg, jobs=2)
            want = beyn_solve(_NodeBasisNep(s, params, ratios), contour, cfg, jobs=2)
            assert [e.multiplicity for e in got] == [e.multiplicity for e in want]
            assert len(got) >= 3
            assert max(abs(a.k - b.k) for a, b in zip(got, want)) <= 1e-10

    @pytest.mark.parametrize("m, block", [(0, 0), (1, 1), (2, 0)])
    def test_interior_resonance_in_its_class(self, m, block):
        # the circle at N = 120 (classes of 31, 30, 31 and 30 rows): S_k is singular
        # at j_{m,1} in the classes of cos(m t) and sin(m t), and the pivot gate
        # against ||S_k||_F fails in the first of them
        s = sample(parse_shape("circle:r=1"), 120)
        with pytest.raises(InteriorResonance) as exc:
            HelmholtzNep(s, MaterialParams(1.0, -0.01, 2.0))(bessel_j_positive_root(m, 1))
        rows = np.cumsum([0, 31, 30, 31, 30])
        assert rows[block] <= exc.value.__cause__.pivot_index < rows[block + 1]
