"""Contour-integral eigensolver: exact small problems, the disk boundary
problem against published values, and robustness invariants."""

import threading

import numpy as np
import pytest

from tevsolve import bie
from tevsolve.beyn import BeynConfig, ContourSpec, NepEigenvalue, beyn_solve, residual
from tevsolve.bie import HelmholtzNep
from tevsolve.errors import CapacityExceeded, ConfigError
from tevsolve.geometry import parse_shape, sample
from tevsolve.materials import MaterialParams
from tevsolve.testing import MatrixPolynomial, quadratic_matrix_poly


EX34 = MaterialParams(4.0, -0.01, 2.0)


class Scalar:
    """M(z) = [z - z0]."""

    dim = 1

    def __init__(self, z0):
        self.z0 = z0

    def __call__(self, z):
        return np.array([[z - self.z0]], dtype=complex)


class Diagonal:
    """M(z) = diag(z - roots)."""

    def __init__(self, roots):
        self.roots = np.asarray(roots, dtype=complex)
        self.dim = self.roots.size

    def __call__(self, z):
        return np.diag(z - self.roots)


class Rational:
    """M(z) = diag((z - 0.1)(z - 0.5)/(z - 3), (z + 0.3)(z - 0.2i)/(z + 3)): four
    simple eigenvalues inside the unit circle, two more than the dimension."""

    dim = 2

    def __call__(self, z):
        return np.diag([(z - 0.1) * (z - 0.5) / (z - 3), (z + 0.3) * (z - 0.2j) / (z + 3)])


@pytest.fixture(scope="module")
def disk_nep():
    return HelmholtzNep(sample(parse_shape("circle:r=1"), 120), EX34)


class TestContourSpec:
    def test_nodes_avoid_axis_and_origin(self):
        # half-offset angles: no node on the real axis, and the contour
        # through the origin never evaluates at z = 0
        c = ContourSpec(0.5, 0.5, 24)
        nodes = c.nodes()
        assert np.all(nodes.real > 0)
        assert np.all(np.abs(nodes.imag) > 1e-12)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            ContourSpec(1.0, -0.5, 24)
        with pytest.raises(ConfigError):
            ContourSpec(1.0, 0.5, 11)

    def test_helmholtz_family_rejects_left_halfplane_nodes(self, disk_nep):
        with pytest.raises(ConfigError):
            beyn_solve(disk_nep, ContourSpec(0.2, 0.5, 24), BeynConfig())


class TestScalarAndPolynomial:
    def test_linear_scalar(self):
        out = beyn_solve(Scalar(0.5), ContourSpec(0.0, 1.0, 24))
        assert len(out) == 1
        assert out[0].k == pytest.approx(0.5, abs=1e-12)
        assert out[0].residual <= 1e-12

    def test_residual_values(self):
        nep = Scalar(0.5)
        assert residual(nep, 0.5) == 0.0
        assert residual(nep, 1.5) == 1.0

    def test_quadratic_polynomial_against_companion(self):
        poly, companion = quadratic_matrix_poly()
        contour = ContourSpec(1.5, 1.2, 48)
        want = sorted(
            (z for z in companion if abs(z - 1.5) < 1.2), key=lambda z: (z.real, z.imag)
        )
        got = beyn_solve(poly, contour, BeynConfig(probe_columns=5, residual_tol=1e-6))
        assert len(got) == len(want) == 3
        for e, w in zip(got, want):
            assert abs(e.k - w) <= 1e-10

    def test_count_matches_rank_when_not_saturated(self):
        poly, _ = quadratic_matrix_poly()
        out = beyn_solve(poly, ContourSpec(1.5, 1.2, 48), BeynConfig(probe_columns=5))
        assert sum(e.multiplicity for e in out) == 3

    def test_newton_polish_on_coarse_contour(self):
        # 16 trapezoid nodes leave the reduced eigenvalues ~6e-6 off; the
        # Newton step squares that error
        poly, companion = quadratic_matrix_poly()
        want = [z for z in companion if abs(z - 1.5) < 1.2]
        got = beyn_solve(poly, ContourSpec(1.5, 1.2, 16),
                         BeynConfig(probe_columns=5, residual_tol=1e-6))
        assert len(got) == 3
        for e in got:
            assert min(abs(e.k - w) for w in want) <= 1e-9
            assert e.residual <= 1e-11

    def test_seed_invariance(self):
        poly, _ = quadratic_matrix_poly()
        runs = []
        for seed in (0, 99):
            out = beyn_solve(
                poly, ContourSpec(1.5, 1.2, 48), BeynConfig(probe_columns=5, seed=seed)
            )
            runs.append(sorted((e.k for e in out), key=lambda z: (z.real, z.imag)))
        for a, b in zip(*runs):
            assert abs(a - b) <= 1e-8

    def test_capacity_exceeded(self):
        poly, _ = quadratic_matrix_poly()
        with pytest.raises(CapacityExceeded):
            beyn_solve(poly, ContourSpec(1.5, 1.2, 48), BeynConfig(probe_columns=2))

    def test_strictly_inside_filter(self):
        # eigenvalue exactly on the contour boundary is rejected
        out = beyn_solve(Scalar(1.0), ContourSpec(2.0, 1.0, 32))
        assert out == []

    def test_empty_contour(self):
        out = beyn_solve(Scalar(10.0), ContourSpec(1.0, 0.5, 16))
        assert out == []

    def test_rank_above_64(self):
        # 70 simple eigenvalues on four rings inside the unit circle, 30 outside:
        # the reduced matrix is 70 x 70
        def ring(r, count):
            return r * np.exp(2j * np.pi * (np.arange(count) + 0.5) / count)

        inside = np.concatenate([ring(0.2, 7), ring(0.4, 14), ring(0.6, 21), ring(0.8, 28)])
        nep = Diagonal(np.concatenate([inside, ring(1.5, 30)]))
        out = beyn_solve(nep, ContourSpec(0.0, 1.0, 256), BeynConfig(probe_columns=80))
        assert len(out) == 70 and all(e.multiplicity == 1 for e in out)
        got = np.sort_complex(np.array([e.k for e in out]))
        assert np.max(np.abs(got - np.sort_complex(inside))) <= 1e-10


class TestMoreEigenvaluesThanDimension:
    """Four eigenvalues in the unit circle of a 2 x 2 family."""

    CONTOUR = ContourSpec(0.0, 1.0, 64)
    INSIDE = [-0.3, 0.2j, 0.1, 0.5]

    @pytest.mark.parametrize("probes", [1, 2])
    def test_probe_space_up_to_dim_saturates(self, probes):
        with pytest.raises(CapacityExceeded):
            beyn_solve(Rational(), self.CONTOUR, BeynConfig(probe_columns=probes))

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: with more probes than dim the moment rank stops at dim, "
        "below the four eigenvalues inside, and beyn_solve returns [] without an error"))
    @pytest.mark.parametrize("probes", [3, 5, 8])
    def test_more_probes_than_dim_find_all_or_raise(self, probes):
        try:
            out = beyn_solve(Rational(), self.CONTOUR, BeynConfig(probe_columns=probes))
        except CapacityExceeded:
            return
        got = sorted((e.k for e in out), key=lambda z: (z.real, z.imag))
        assert got == pytest.approx(self.INSIDE, abs=1e-8)


class TestDiskBoundaryProblem:
    def test_real_root_contour(self, disk_nep):
        out = beyn_solve(disk_nep, ContourSpec(3.5, 0.5, 24), BeynConfig())
        near = [e for e in out if abs(e.k - 3.4567) < 1e-3]
        assert len(near) == 1 and near[0].multiplicity == 1

    def test_double_eigenvalue_contour(self, disk_nep):
        out = beyn_solve(disk_nep, ContourSpec(2.2, 0.5, 24), BeynConfig())
        near = [e for e in out if abs(e.k - 2.1516) < 1e-3]
        assert len(near) == 1 and near[0].multiplicity == 2

    def test_complex_eigenvalue_contour(self, disk_nep):
        out = beyn_solve(disk_nep, ContourSpec(2.2 + 0.6j, 0.5, 24), BeynConfig())
        near = [e for e in out if abs(e.k - (2.2032 + 0.2905j)) < 1e-3]
        assert len(near) == 1

    def test_quadrature_doubling(self):
        nep = HelmholtzNep(
            sample(parse_shape("circle:r=1"), 64), MaterialParams(4.0, -0.01, 2.0)
        )
        vals = {}
        for nq in (24, 48):
            out = beyn_solve(nep, ContourSpec(3.5, 0.5, nq), BeynConfig())
            vals[nq] = min(out, key=lambda e: abs(e.k - 3.4567)).k
        assert abs(vals[24] - vals[48]) <= 1e-8

    def test_jobs_do_not_change_results(self):
        # simple, double and complex eigenvalues; a new operator (and trace-ratio
        # cache) per run, so that every run builds its own matrices
        s = sample(parse_shape("circle:r=1"), 64)
        for center in (3.5, 2.2, 2.2 + 0.6j):
            contour = ContourSpec(center, 0.5, 24)
            runs = [beyn_solve(HelmholtzNep(s, EX34), contour, BeynConfig(), jobs=jobs)
                    for jobs in (1, 2, 4)]
            assert runs[0] and runs[1] == runs[0] and runs[2] == runs[0]

    def test_trace_ratios_after_the_nodes_run_on_the_pool(self, monkeypatch):
        # every trace ratio off the quadrature nodes waits for a second one, so
        # the batches after the nodes must build them two at a time
        nep = HelmholtzNep(sample(parse_shape("circle:r=1"), 64), EX34)
        contour = ContourSpec(2.2 + 0.6j, 0.5, 24)
        nodes = {k for z in map(complex, contour.nodes()) for k in (z, z * EX34.sqrt_n)}
        barrier = threading.Barrier(2, timeout=30)
        original = bie._trace_ratio

        def paired(curve, k, classes, work):
            if k not in nodes:
                barrier.wait()
            return original(curve, k, classes, work)

        monkeypatch.setattr(bie, "_trace_ratio", paired)
        out = beyn_solve(nep, contour, BeynConfig(), jobs=2)
        assert len(out) == 1 and abs(out[0].k - (2.2032 + 0.2905j)) < 1e-3

    def test_residual_at_published_root(self, disk_nep):
        assert residual(disk_nep, 3.4567) <= 1e-3
