"""Built-in oracle suites behind the `tevsolve selftest` subcommand.

Each check exercises a solver component against an independent reference
that needs no tabulated data: classical special-function identities, the
analytic circle symbols of the boundary operators, a matrix polynomial with
known spectrum, and invariance properties of the contour eigensolver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .beyn import BeynConfig, ContourSpec, beyn_solve
from .bie import HelmholtzNep, assemble_single_layer, neumann_trace_matrix
from .geometry import parse_shape, sample
from .materials import MaterialParams
from .special import bessel_j, hankel1
from .studies import read_table_csv, spectrum_table, write_table, SpectrumRow
from .testing import quadratic_matrix_poly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except AssertionError as exc:
        detail, ok = str(exc), False
    return CheckResult(name, ok, detail, time.perf_counter() - t0)


def _bessel_identities() -> str:
    rng = np.random.Generator(np.random.Philox(7))
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 20))
        z = rng.uniform(0.1, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs = bessel_j(m - 1, z) + bessel_j(m + 1, z)
        rhs = (2.0 * m / z) * bessel_j(m, z)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-10, f"three-term recurrence error {worst:.2e} > 1e-10"
    # Wronskian J1 H0 - J0 H1 = 2i / (pi z) in the right half-plane, relative
    # to the larger product (they grow like exp(2 |im z|) below the real axis)
    z = rng.uniform(0.1, 50, 200) * np.exp(1j * rng.uniform(-1.5, 1.5, 200))
    a, b = bessel_j(1, z) * hankel1(0, z), bessel_j(0, z) * hankel1(1, z)
    err = float(np.max(np.abs(a - b - 2j / (np.pi * z)) / np.maximum(np.abs(a), np.abs(b))))
    assert err <= 1e-12, f"Wronskian error {err:.2e} > 1e-12"
    return f"recurrence {worst:.1e}, Wronskian {err:.1e}"


def _circle_modes() -> str:
    import scipy.special as sp

    s = sample(parse_shape("circle:r=1"), 128)
    k = 2.0
    S = assemble_single_layer(s, k)
    A = neumann_trace_matrix(s, k)
    worst = 0.0
    for m in range(6):
        mode = np.exp(1j * m * s.t)
        ref_s = (1j * np.pi / 2) * sp.jv(m, k) * sp.hankel1(m, k)
        ref_a = (1j * np.pi * k / 2) * sp.jvp(m, k) * sp.hankel1(m, k)
        worst = max(worst, np.max(np.abs(S @ mode - ref_s * mode)))
        worst = max(worst, np.max(np.abs(A @ mode - ref_a * mode)))
    assert worst <= 1e-8, f"circle-mode operator error {worst:.2e} > 1e-8"
    return f"max mode error {worst:.1e} at N=128"


def _poly_nep() -> str:
    poly, companion_eigs = quadratic_matrix_poly()
    inside = sorted(
        (z for z in companion_eigs if abs(z - 1.5) < 1.2), key=lambda z: (z.real, z.imag)
    )
    contour = ContourSpec(center=1.5 + 0.0j, radius=1.2, quad_points=48)
    found = beyn_solve(poly, contour, BeynConfig(probe_columns=5, residual_tol=1e-6))
    got = sorted((e.k for e in found), key=lambda z: (z.real, z.imag))
    assert len(got) == len(inside), f"expected {len(inside)} eigenvalues inside, found {len(got)}"
    err = max(abs(g - w) for g, w in zip(got, inside))
    assert err <= 1e-10, f"polynomial NEP error {err:.2e} > 1e-10"
    # seed independence
    found2 = beyn_solve(poly, contour, BeynConfig(probe_columns=5, residual_tol=1e-6, seed=12345))
    got2 = sorted((e.k for e in found2), key=lambda z: (z.real, z.imag))
    serr = max(abs(g - w) for g, w in zip(got, got2))
    assert serr <= 1e-8, f"seed dependence {serr:.2e} > 1e-8"
    return f"spectrum error {err:.1e}, seed sensitivity {serr:.1e}"


def _contour_shift() -> str:
    params = MaterialParams(n=4.0, eta=-0.01, lam=2.0)
    nep = HelmholtzNep(sample(parse_shape("circle:r=1"), 120), params)
    values = []
    for mu in (3.4, 3.6):
        found = beyn_solve(nep, ContourSpec(mu, 0.5), BeynConfig())
        near = [e.k for e in found if abs(e.k - 3.4567) < 0.05]
        assert near, f"contour at mu={mu} missed the eigenvalue near 3.4567"
        values.append(near[0])
    err = abs(values[0] - values[1])
    assert err <= 1e-6, f"contour-shift disagreement {err:.2e} > 1e-6"
    return f"overlapping contours agree to {err:.1e}"


def _csv_round_trip() -> str:
    rows = [
        SpectrumRow(0.1234567890123456, -0.5, 2, 1.25e-9, 4, "determinant"),
        SpectrumRow(3.4567041234567891, 0.0, 1, 3.5e-12, 0, "beyn:mu=3.5,R=0.5"),
    ]
    text = write_table(spectrum_table(rows), out=None, fmt="csv")
    parsed = read_table_csv(text)
    assert parsed[0] == ["re_k", "im_k", "multiplicity", "residual", "mode_m", "source"]
    for row, orig in zip(parsed[1:], rows):
        assert float(row[0]) == orig.re_k and float(row[1]) == orig.im_k, "float round trip failed"
        assert float(row[3]) == orig.residual and int(row[2]) == orig.multiplicity
    return "17-digit floats re-parse exactly"


def run_selftest() -> list[CheckResult]:
    """Run every oracle suite; total runtime well under a minute."""
    return [
        _check("bessel-recurrence-wronskian", _bessel_identities),
        _check("circle-mode-operators", _circle_modes),
        _check("contour-solver-polynomial", _poly_nep),
        _check("contour-shift-invariance", _contour_shift),
        _check("csv-round-trip", _csv_round_trip),
    ]
