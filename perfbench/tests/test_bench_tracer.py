"""The tracer's counts against hand counts on tiny problems."""

import sys
import threading

import pytest

import tevsolve
from tevsolve import beyn, disk
from tevsolve.bie import HelmholtzNep
from tevsolve.geometry import parse_shape, sample
from tevsolve.materials import MaterialParams
from tracer import TARGETS, Tracer

EX34 = MaterialParams(4.0, -0.01, 2.0)


def test_beyn_contour_hand_count():
    # One simple eigenvalue of the unit circle (mode 0, k = 3.4567) inside the
    # contour, nothing else.  Every new wavenumber costs one trace ratio each
    # for k and k sqrt(n): one S_k, one K^T_k and one LU.  The 24 nodes give 48;
    # the eigenvalue's residual, the polish's forward-difference point and the
    # polished residual give 2 each (the polish's own M(z) hits the cache).
    n = 32
    nep = HelmholtzNep(sample(parse_shape("circle:r=1"), n), EX34)
    with Tracer() as tracer:
        out = beyn.beyn_solve(nep, beyn.ContourSpec(3.45, 0.04, 24), beyn.BeynConfig(), jobs=2)
    m = tracer.metrics(0.0, 1.0, 1)
    assert len(out) == 1 and out[0].multiplicity == 1
    assert abs(out[0].k - 3.4567040089) < 1e-8
    assemblies = 48 + 6
    assert m["bie.assemble_single_layer.calls"] == assemblies
    assert m["bie.assemble_adjoint_double_layer.calls"] == assemblies
    # S_k takes J_0 and H_0 on the n x n distance matrix, K^T_k takes J_1 and H_1
    assert m["special.hankel1.points"] == 2 * assemblies * n * n
    assert m["special.bessel_j.points"] == 2 * assemblies * n * n
    assert m["special.bessel_j_prime.points"] == 0
    # M(k): 24 nodes, the residual, and the polish's M(z), M(z + h) and residual
    assert m["bie.nep.calls"] == 24 + 4
    assert m["beyn.post_nep_calls"] == 4
    assert m["bie.trace_ratio.hit_ratio"] == pytest.approx(1 - assemblies / (2 * 28))
    assert m["linalg.lu_factor.calls"] == assemblies + 24  # trace ratios, node solves
    # residuals (2, singular values only), the moment SVD and the polish's SVD
    assert m["linalg.svd.calls"] == 2 + 1 + 1
    assert m["linalg.eig_dense.calls"] == 1
    assert m["beyn.contours"] == 1
    assert m["beyn.residual.calls"] == 2
    assert m["beyn.eigenvalues"] == 1
    assert m["beyn.accept_ratio"] == 0.5
    assert m["disk.scan_points"] == 0 and m["geometry.sample.calls"] == 0
    # nested time: the assembly contains its Bessel/Hankel calls
    assert 0 < m["bie.assemble.self_s"] < m["bie.assemble.busy_s"]
    assert m["special.busy_s"] < m["bie.assemble.busy_s"] < m["bie.nep.busy_s"]


def test_disk_scan_hand_count():
    # 10000 scan points 3.0, 3.0001, ..., 3.9999 on mode 0; one sign change,
    # bisected from width 1e-4 to 1e-10 in 20 halvings, plus one residual.
    with Tracer() as tracer:
        roots = disk.real_roots(EX34, 0, (3.0, 3.99995), 1e-10)
    m = tracer.metrics(0.0, 1.0, 1)
    assert len(roots) == 1
    assert m["disk.scan_points"] == 10000
    assert m["disk.scalar_evals"] == 20 + 1
    assert m["disk.real_roots.calls"] == 1 and m["disk.roots"] == 1
    # det_m takes J_m and J'_m at k and at k sqrt(n)
    assert m["special.bessel_j.points"] == m["special.bessel_j_prime.points"] == 2 * (10000 + 21)
    assert m["special.hankel1.points"] == 0 and m["bie.nep.calls"] == 0


def test_patches_every_binding_and_restores_them():
    originals = {(mod, fn): getattr(sys.modules[f"tevsolve.{mod}"], fn) for mod, fn, _ in TARGETS}
    from tevsolve import bie, studies

    with Tracer():
        # names bound at import, in the modules that look them up
        assert bie.hankel1 is not originals["special", "hankel1"]
        assert disk.bessel_j is not originals["special", "bessel_j"]
        assert studies.beyn_solve is not originals["beyn", "beyn_solve"]
        assert studies.real_roots is not originals["disk", "real_roots"]
        assert tevsolve.linalg.lu_factor is not originals["linalg", "lu_factor"]
        assert HelmholtzNep.__call__.__wrapped__ is not None
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[f"tevsolve.{mod}"], fn) is original
    assert bie.hankel1 is originals["special", "hankel1"]
    assert not hasattr(HelmholtzNep.__call__, "__wrapped__")


def test_counts_survive_thread_contention():
    # more threads than cores, switching every microsecond: a lost update
    # would show as a count below the number of calls made
    threads, calls = 6, 300
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            def work():
                for _ in range(calls):
                    disk.disk_determinant(0, 3.0, EX34)

            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
    m = tracer.metrics(0.0, 1.0, 1)
    assert m["disk.scalar_evals"] == threads * calls
    assert m["special.bessel_j.points"] == 2 * threads * calls
