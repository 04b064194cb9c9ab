"""Boundary-operator discretization: circle-mode oracles, kernel structure,
the assembled eigenvalue matrix, and resonance detection."""

import dataclasses

import numpy as np
import pytest
import scipy.special as sp

from tevsolve import bie, linalg, special
from tevsolve.beyn import ContourSpec
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
    rule, with table=None, from the nodes and normals alone."""
    n, speed, h = s.n, s.speeds, 2.0 * np.pi / s.n
    l = np.arange(n)
    m = np.arange(1, n // 2)
    w = -(4.0 * np.pi / n) * (np.cos(2.0 * np.pi * np.outer(l, m) / n) / m).sum(axis=1)
    weights = (w - (4.0 * np.pi / n**2) * np.cos(np.pi * l))[np.abs(l[:, None] - l[None, :])]
    log = np.log(4.0 * np.sin((s.t[:, None] - s.t[None, :]) / 2.0) ** 2 + np.eye(n))

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
        reps, inverse, _ = s.nystrom[4]
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
            monkeypatch.setattr(bie, "hankel1", lambda m, z, table: special.hankel1(m, z, fold))
            monkeypatch.setattr(bie, "bessel_j", lambda m, z, table: special.bessel_j(m, z, fold))
            nep = HelmholtzNep(s, EX34)
            return [(assemble_single_layer(s, k), assemble_adjoint_double_layer(s, k), nep(k))
                    for k in self.KS]

        for with_fold, without in zip(operators(s.nystrom[4]), operators(None)):
            for a, b in zip(with_fold, without):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape, n", INPUTS)
    def test_fused_assembly_matches_the_log_split(self, shape, n):
        s = self._sample(shape, n)
        for k in self.KS:
            S, K = _log_split_reference(s, k)
            for got, want in ((assemble_single_layer(s, k), S),
                              (assemble_adjoint_double_layer(s, k), K)):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            P = linalg.solve_right(0.5 * np.eye(s.n) + K, S)
            got = bie._trace_ratio(s, k)
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

    def test_identical_media_give_zero_operator(self):
        s = sample(parse_shape("circle:r=1"), 64)
        p = MaterialParams(n=1.0, eta=0.0, lam=1.0)
        M = HelmholtzNep(s, p)(1.7)
        assert np.linalg.norm(M) <= 1e-10

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
    def test_matches_direct_assembly(self):
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 64)
        nep = HelmholtzNep(s, EX34)
        z = 1.2 + 0.1j

        def trace_ratio(k):
            return linalg.solve_right(neumann_trace_matrix(s, k), assemble_single_layer(s, k))

        ref = EX34.lam * trace_ratio(z * EX34.sqrt_n) - trace_ratio(z) - EX34.eta * np.eye(s.n)
        assert np.allclose(nep(z), ref, atol=1e-13)

    def test_sample_tables_built_before_the_pool(self):
        # the pool's threads then only read them, and never build them twice
        s = sample(parse_shape("kite"), 32)
        HelmholtzNep(s, EX34)
        assert "nystrom" in vars(s)

    def test_matrix_bitwise_equal_to_the_identity_form(self):
        # M(z) is formed in place; its bits, signed zeros included, are those of
        # lam P_w - P_v - eta I
        s = sample(parse_shape("ellipse:a=1,b=1.2"), 64)
        for params in (EX34, MaterialParams(n=2.0, eta=0.3, lam=0.5)):
            nep = HelmholtzNep(s, params)
            for z in (1.2 + 0.1j, 2.5 - 0.05j):
                P_w, P_v = nep._ratio(z * params.sqrt_n), nep._ratio(z)
                want = params.lam * P_w - P_v - params.eta * np.eye(s.n)
                assert np.array_equal(nep(z).view(np.uint64), want.view(np.uint64))

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
            assert np.array_equal(neps[0](z), neps[1](z))

    def test_cache_shared_across_parameters(self):
        s = sample(parse_shape("circle:r=1"), 64)
        nep = HelmholtzNep(s, EX34)
        nep(1.5)
        other = nep.with_params(MaterialParams(n=4.0, eta=-0.01, lam=3.0))
        assert other._ratios is nep._ratios
        # lam enters only as a scalar weight: M_lam3 - M_lam2 = P_w
        d = other(1.5) - nep(1.5)
        s1 = assemble_single_layer(s, 1.5 * EX34.sqrt_n)
        a1 = neumann_trace_matrix(s, 1.5 * EX34.sqrt_n)
        p_w = linalg.solve_right(a1, s1)
        assert np.allclose(d, p_w, atol=1e-12)
