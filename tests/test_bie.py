"""Boundary-operator discretization: circle-mode oracles, kernel structure,
the assembled eigenvalue matrix, and resonance detection."""

import numpy as np
import pytest
import scipy.special as sp

from tevsolve import bie, linalg
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
        assert s.chords is s.chords  # built once per sample
        for cached in (*s.chords, *bie._log_quadrature(s.n)):
            assert not cached.flags.writeable


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

    def test_cache_budget_shared_by_copies(self, monkeypatch):
        # the budget holds across copies: three matrices fit, the oldest goes
        monkeypatch.setattr(bie, "CACHE_BYTES", 3 * 32 * 32 * 16)
        s = sample(parse_shape("circle:r=1"), 32)
        nep = HelmholtzNep(s, EX34)
        other = nep.with_params(MaterialParams(n=4.0, eta=-0.01, lam=3.0))
        other(1.5)
        nep(1.7)
        assert nep._cache.cache_info().currsize == 3
        other(1.9)
        assert nep._cache.cache_info().currsize == 3

    def test_cache_hit_refreshes_entry(self, monkeypatch):
        # with room for three, a hit on A makes B the least recently used
        monkeypatch.setattr(bie, "CACHE_BYTES", 3 * 32 * 32 * 16)
        built = []
        original = bie._trace_ratio
        monkeypatch.setattr(bie, "_trace_ratio", lambda curve, k: built.append(k) or
                            original(curve, k))
        cache = HelmholtzNep(sample(parse_shape("circle:r=1"), 32), EX34)._cache
        for k in (1.1, 1.2, 1.3, 1.1, 1.4):
            cache(k)
        assert built == [1.1, 1.2, 1.3, 1.4]
        cache(1.1)
        assert len(built) == 4
        cache(1.2)
        assert built[4:] == [1.2]

    def test_prefetch_builds_each_trace_ratio_once(self, monkeypatch):
        s = sample(parse_shape("circle:r=1"), 32)
        built = []
        original = bie._trace_ratio
        monkeypatch.setattr(bie, "_trace_ratio", lambda curve, k: built.append(k) or
                            original(curve, k))
        zs = [1.5 + 0.1j, 1.7, 1.5 + 0.1j]
        nep = HelmholtzNep(s, EX34)
        nep.prefetch(zs, 2)
        assert sorted(built, key=abs) == [1.5 + 0.1j, 1.7, 3.0 + 0.2j, 3.4]
        for z in zs:
            nep(z)
        assert len(built) == 4
        # four matrices do not fit in a budget of three: nothing is built ahead
        monkeypatch.setattr(bie, "CACHE_BYTES", 3 * 32 * 32 * 16)
        HelmholtzNep(s, EX34).prefetch(zs, 2)
        assert len(built) == 4

    def test_cache_shared_across_parameters(self):
        s = sample(parse_shape("circle:r=1"), 64)
        nep = HelmholtzNep(s, EX34)
        nep(1.5)
        other = nep.with_params(MaterialParams(n=4.0, eta=-0.01, lam=3.0))
        assert other._cache is nep._cache
        # lam enters only as a scalar weight: M_lam3 - M_lam2 = P_w
        d = other(1.5) - nep(1.5)
        s1 = assemble_single_layer(s, 1.5 * EX34.sqrt_n)
        a1 = neumann_trace_matrix(s, 1.5 * EX34.sqrt_n)
        p_w = linalg.solve_right(a1, s1)
        assert np.allclose(d, p_w, atol=1e-12)
