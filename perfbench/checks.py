"""Correctness checks of a pass's results against oracles independent of the solvers.

The oracles come from ``tevsolve.testing`` and share no code with the path
they check: 40-digit mpmath roots of det_m for the determinant workloads; the
small-wavenumber expansion and the Fourier-Bessel method of particular
solutions for the boundary-integral ones.  The checks run in the runner,
after the timed pass.  Each returns a list of failure messages, empty when
the results are correct.
"""

from __future__ import annotations

import math

from tevsolve.geometry import parse_shape
from tevsolve.testing import disk_root_mp, fourier_bessel_root, small_k_expansion

import workloads

MP_ROOT_TOL = 1e-8          # disk roots vs mpmath
FOURIER_BESSEL_TOL = 1e-5   # ellipse eigenvalues vs the Fourier-Bessel oracle
FOURIER_BESSEL_ORDER = 16   # resolves the ellipse at these wavenumbers (lambda <= 2)
FOURIER_BESSEL_HALFWIDTH = 5e-4
EXPANSION_ERROR_FACTOR = 4.0  # criterion 4: k1 tolerance, times the expansion's error on the disk
EOC_RANGE = (0.85, 1.2)     # linear convergence as lambda -> 1, checked for p >= EOC_FROM
EOC_FROM = 4
REAL_IMAG_TOL = 5e-4
SPECTRUM_COUNT = 9
# the monotonicity theorem: eigenvalues rise with n in regime A and fall in regime B
SWEEP_DIRECTION = {"n regime A": "ascending", "n regime B": "descending"}


def check(studies: list, results: list[dict]) -> list[str]:
    """Failures of one pass; a study that raised was counted as failed and is skipped."""
    failures = []
    for study, res in zip(studies, results):
        if "error" in res:
            continue
        oracle, tol = _oracle(study)
        if study.kind == "converge":
            failures += check_convergence(study, res, oracle, tol)
        elif study.kind == "sweep":
            failures += check_sweep(study, res, oracle, tol)
        else:
            failures += check_spectrum(study, res, oracle, tol)
    return failures


def _oracle(study):
    """(oracle(params, k), tolerance): the oracle gives the eigenvalue nearest k."""
    if study.cfg.method == "determinant":
        m_max = study.cfg.determinant.m_max
        return (lambda params, k: disk_root_mp(params, k, m_max)[1]), MP_ROOT_TOL
    curve = parse_shape(study.cfg.shape)

    def fourier_bessel(params, k):
        return fourier_bessel_root(curve, params, k, FOURIER_BESSEL_ORDER,
                                   FOURIER_BESSEL_HALFWIDTH)[0]

    return fourier_bessel, FOURIER_BESSEL_TOL


def _agree(label: str, got, params, oracle, tol: float, failures: list) -> float | None:
    """The oracle's value near got, recording a failure when they differ by more than tol."""
    if got is None:
        failures.append(f"{label}: missing")
        return None
    try:
        want = oracle(params, got)
    except ValueError as exc:  # the oracle found no eigenvalue near got
        failures.append(f"{label}: ours {got:.10f}, oracle: {exc}")
        return None
    if not abs(got - want) <= tol:
        failures.append(f"{label}: ours {got:.10f} vs oracle {want:.10f} (|diff| {abs(got - want):.1e})")
    return want


def check_convergence(study, res: dict, oracle, tol: float) -> list[str]:
    """Limits and every row value against the oracle, then the EOC against the oracle's limits."""
    failures: list[str] = []
    material = study.cfg.material
    exact = [_agree(f"{study.name} limit k{j + 1}", k, material.replace(lam=1.0), oracle, tol,
                    failures) for j, k in enumerate(res["limits"])]
    for p, (lam, ks) in enumerate(zip(res["lams"], res["ks"]), start=1):
        for j, k in enumerate(ks):
            _agree(f"{study.name} p={p} k{j + 1}", k, material.replace(lam=lam), oracle, tol,
                   failures)
    if len(res["ks"]) != workloads.P_MAX:
        failures.append(f"{study.name}: {len(res['ks'])} rows, wanted {workloads.P_MAX}")
    failures += check_eoc(study.name, res["ks"], exact)
    return failures


def check_eoc(name: str, rows: list, limits: list) -> list[str]:
    """log2(e_{p-1} / e_p), e_p = |k_p - limit|, must lie in EOC_RANGE for p >= EOC_FROM."""
    failures = []
    for p in range(EOC_FROM, len(rows) + 1):
        for j, limit in enumerate(limits):
            prev, cur = rows[p - 2][j], rows[p - 1][j]
            if limit is None or prev is None or cur is None:
                continue  # already reported as a missing or unchecked value
            e_prev, e_cur = abs(prev - limit), abs(cur - limit)
            eoc = math.log2(e_prev / e_cur) if e_prev > 0 and e_cur > 0 else math.nan
            if not EOC_RANGE[0] <= eoc <= EOC_RANGE[1]:
                failures.append(f"{name} p={p} eoc{j + 1} = {eoc:.4f} outside {EOC_RANGE}")
    return failures


def check_sweep(study, res: dict, oracle, tol: float) -> list[str]:
    """Every value against the oracle; the oracle's columns must move the theorem's way."""
    failures: list[str] = []
    field = {"lambda": "lam"}.get(study.cfg.sweep_field, study.cfg.sweep_field)
    columns: list[list] = [[], [], []]
    for param, ks in zip(res["params"], res["ks"]):
        params = study.cfg.material.replace(**{field: param})
        for j, k in enumerate(ks):
            columns[j].append(_agree(f"{study.name} {field}={param:g} k{j + 1}", k, params,
                                     oracle, tol, failures))
    direction = SWEEP_DIRECTION[study.name]
    for j, column in enumerate(columns):
        if None in column:
            continue
        steps = [b - a for a, b in zip(column, column[1:])]
        if not all(s > 0 if direction == "ascending" else s < 0 for s in steps):
            failures.append(f"{study.name} k{j + 1}: oracle values {column} not {direction}")
        if res["verdicts"][j] != direction:
            failures.append(f"{study.name} k{j + 1}: verdict {res['verdicts'][j]!r}, wanted {direction!r}")
    return failures


def check_spectrum(study, res: dict, oracle, tol: float) -> list[str]:
    """The first nine real eigenvalues: k1 against the small-k expansion, the rest against the oracle."""
    failures: list[str] = []
    reals = sorted(re for re, im, _ in res["eigenvalues"] if abs(im) <= REAL_IMAG_TOL)
    if len(reals) < SPECTRUM_COUNT:
        failures.append(f"{study.name}: {len(reals)} real eigenvalues, wanted {SPECTRUM_COUNT}")
    material = study.cfg.material
    if reals:
        # criterion 4's tolerance: a multiple of the expansion's relative error on the disk
        disk_expansion = small_k_expansion(parse_shape("circle:r=1"), material)
        disk_exact = disk_root_mp(material, disk_expansion, 0)[1]
        rtol = EXPANSION_ERROR_FACTOR * abs(disk_expansion - disk_exact) / disk_exact
        expansion = small_k_expansion(parse_shape(study.cfg.shape), material)
        _agree(f"{study.name} k1", reals[0], material, lambda p, k: expansion,
               rtol * expansion, failures)
    for j, k in enumerate(reals[1:SPECTRUM_COUNT], start=2):
        _agree(f"{study.name} k{j}", k, material, oracle, tol, failures)
    return failures
