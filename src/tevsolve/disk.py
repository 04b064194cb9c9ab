"""Exact unit-disk spectrum via the angular-mode determinants.

Separation of variables on the unit disk reduces the transmission eigenvalue
problem to scalar root finding: for each integer mode m >= 0,

    det_m(k) = -J_m(k s) (k J'_m(k) + eta J_m(k)) + lam J'_m(k s) k s J_m(k),

with s = sqrt(n), and k is an eigenvalue iff det_m(k) = 0 for some m.  det_m
is entire in k and real on the real axis for real parameters, so real roots
are found by sign-change bracketing and complex roots by a grid-seeded Newton
iteration with the analytic derivative.

det_m is bilinear in (eta, lam) once J_m and J'_m are known at k and k s.
The real-axis scan of a study's material points (a lambda -> 1 study, an
n, eta or lambda sweep) therefore evaluates J_m and J'_m at k once per mode
for all of them, and at k s once per mode and distinct n; each point keeps
its own bracketing and bisection, so its roots are those of a one-point
scan.  The modes are independent tasks on the ``jobs`` pool.

Mode m = 0 gives simple eigenvalues; every m >= 1 eigenvalue carries the
two-dimensional angular eigenspace (e^{+imt}, e^{-imt}) and is recorded once
with multiplicity 2.  Ordering and "first eigenvalue" semantics count
distinct k values, the way the reference tables list them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .linalg import _map
from .materials import MaterialParams
from .special import MAX_ORDER, bessel_j, bessel_j_prime, bessel_j_second

logger = logging.getLogger(__name__)

DEFAULT_M_MAX = 10
DEFAULT_K_MIN = 1.0e-3
_NEWTON_MAX_STEPS = 100
_SCAN_STEP_CAP = 0.01
_SCAN_STEP_FLOOR = 1.0e-4


@dataclass(frozen=True)
class DiskEigenvalue:
    """A root of det_m: eigenvalue k, its mode index, multiplicity, residual."""

    k: complex
    mode_m: int
    multiplicity: int
    residual: float


def disk_determinant(m: int, k, p):
    """Evaluate det_m(k); vectorized over k, entire in k, real for real k.

    p is one MaterialParams, or a sequence of them: the result then has one
    row per point, (len(p),) + shape(k), each row bitwise equal to the
    one-point value.  J_m and J'_m are evaluated once at k, and at k sqrt(n)
    once per distinct n, one n at a time.
    """
    points = (p,) if isinstance(p, MaterialParams) else tuple(p)
    jm, jpm = bessel_j(m, k), bessel_j_prime(m, k)
    out = np.empty((len(points),) + np.shape(k), np.result_type(k, jm, jpm))
    for n in dict.fromkeys(q.n for q in points):
        rows = [i for i, q in enumerate(points) if q.n == n]
        s = points[rows[0]].sqrt_n
        jm_s, jpm_s = bessel_j(m, k * s), bessel_j_prime(m, k * s)
        for i in rows:
            q = points[i]
            out[i] = -jm_s * (k * jpm + q.eta * jm) + q.lam * jpm_s * k * s * jm
    return out[0] if isinstance(p, MaterialParams) else out


def disk_determinant_prime(m: int, k, p: MaterialParams):
    """Analytic d/dk of det_m(k), via the Bessel derivative recurrences."""
    s = p.sqrt_n
    jm_s = bessel_j(m, k * s)
    jm = bessel_j(m, k)
    jp_s = bessel_j_prime(m, k * s)
    jp = bessel_j_prime(m, k)
    jpp_s = bessel_j_second(m, k * s)
    jpp = bessel_j_second(m, k)
    # det_m = -A B + C D with A = J_m(ks), B = k J'_m(k) + eta J_m(k),
    # C = lam k s J'_m(ks), D = J_m(k)
    a, ap = jm_s, s * jp_s
    b, bp = k * jp + p.eta * jm, jp + k * jpp + p.eta * jp
    c, cp = p.lam * k * s * jp_s, p.lam * s * jp_s + p.lam * k * s * s * jpp_s
    d, dp = jm, jp
    return -ap * b - a * bp + cp * d + c * dp


def _bisect(m: int, a: float, b: float, fa: float, p: MaterialParams, tol: float) -> float:
    while b - a > tol:
        c = 0.5 * (a + b)
        fc = float(disk_determinant(m, c, p))
        if fc == 0.0:
            return c
        if fa * fc < 0:
            b = c
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def real_roots(
    p: MaterialParams,
    m_max: int = DEFAULT_M_MAX,
    k_range: tuple[float, float] = (DEFAULT_K_MIN, 10.0),
    tol: float = 1.0e-10,
    step: float | None = None,
    jobs: int = 1,
) -> list[DiskEigenvalue]:
    """All real eigenvalues in (k_min, k_max] over modes m = 0..m_max.

    The one-point case of :func:`real_roots_many`.
    """
    return real_roots_many([p], m_max, k_range, tol, step, jobs)[0]


def real_roots_many(
    points,
    m_max: int = DEFAULT_M_MAX,
    k_range: tuple[float, float] = (DEFAULT_K_MIN, 10.0),
    tol: float = 1.0e-10,
    step: float | None = None,
    jobs: int = 1,
) -> list[list[DiskEigenvalue]]:
    """The real eigenvalues of each point in (k_min, k_max], m = 0..m_max.

    Scans each det_m on a uniform grid of spacing ``step`` (default
    min(0.01, tol * 1e6), floored at 1e-4), brackets sign changes, and
    refines by bisection to an interval of width tol.  Each mode m is one
    task on a pool of ``jobs`` threads: it scans det_m for all points at
    once (see disk_determinant) and bisects each point's brackets.  The
    modes merge in order, so each point's root list equals its one-point
    scan at any ``jobs``.
    k_min must be positive: k = 0 is an analytic zero of every det_m with
    m >= 1 and never an eigenvalue.
    """
    k_min, k_max = float(k_range[0]), float(k_range[1])
    if not (0 < k_min < k_max) or not np.isfinite(k_max):
        raise ConfigError(f"k_range must satisfy 0 < k_min < k_max, got {k_range}")
    if tol < 1.0e-12:
        raise ConfigError(f"tol must be >= 1e-12, got {tol}")
    if not 0 <= m_max <= MAX_ORDER:
        raise ConfigError(f"m_max must be in 0..{MAX_ORDER}, the supported Bessel orders, "
                          f"got {m_max}")
    h = step if step is not None else min(_SCAN_STEP_CAP, max(tol * 1.0e6, _SCAN_STEP_FLOOR))
    if h <= 0:
        raise ConfigError(f"scan step must be positive, got {h}")
    points = list(points)
    if not points:
        return []
    ks = np.arange(k_min, k_max + h, h)
    ks = ks[ks <= k_max]

    def scan(m: int) -> list[list[DiskEigenvalue]]:
        mult = 1 if m == 0 else 2
        found: list[list[DiskEigenvalue]] = []
        for p, vals in zip(points, disk_determinant(m, ks, points)):
            out: list[DiskEigenvalue] = []
            sign = np.sign(vals)
            hits = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            for i in hits:
                root = _bisect(m, float(ks[i]), float(ks[i + 1]), float(vals[i]), p, tol)
                residual = abs(complex(disk_determinant(m, root, p)))
                out.append(DiskEigenvalue(complex(root), m, mult, residual))
            for i in np.nonzero(vals == 0.0)[0]:
                out.append(DiskEigenvalue(complex(ks[i]), m, mult, 0.0))
            found.append(out)
        return found

    modes = _map(scan, range(m_max + 1), jobs)
    outs = [[e for mode in modes for e in mode[i]] for i in range(len(points))]
    for out in outs:
        out.sort(key=lambda e: (e.k.real, e.k.imag, e.mode_m))
    return outs


def complex_roots(
    m: int,
    p: MaterialParams,
    region: tuple[float, float, float, float],
    grid: tuple[int, int] = (201, 81),
    tol: float = 1.0e-10,
) -> list[DiskEigenvalue]:
    """Complex eigenvalues of mode m inside the rectangle region.

    region is (re_min, re_max, im_min, im_max) in the right half-plane.
    Seeds are the local minima of |det_m| on the search lattice; each seed is
    polished by Newton iteration with the analytic derivative until
    |det_m| <= tol.  Non-converging seeds are dropped with a logged warning.
    Conjugate partners are always reported together (det_m has real
    coefficients), and duplicates within 10*tol are merged.
    """
    re0, re1, im0, im1 = map(float, region)
    if not (re1 > re0 and im1 > im0):
        raise ConfigError(f"degenerate region {region}")
    if re1 <= 0:
        raise ConfigError("search region must intersect the right half-plane")
    nx, ny = map(int, grid)
    if nx < 3 or ny < 3:
        raise ConfigError("grid must be at least 3x3 to detect interior minima")
    re, im, absd = determinant_grid(m, p, (max(re0, 1.0e-6), re1, im0, im1), nx, ny)
    interior = absd[1:-1, 1:-1]
    is_min = (interior == sliding_window_view(absd, (3, 3)).min(axis=(2, 3))) & (interior < np.inf)
    i, j = np.nonzero(is_min)
    seeds = re[1:-1][i] + 1j * im[1:-1][j]

    roots: list[complex] = []
    for seed in seeds:
        k = complex(seed)
        ok = False
        for _ in range(_NEWTON_MAX_STEPS):
            f = complex(disk_determinant(m, k, p))
            if abs(f) <= tol:
                ok = True
                break
            df = complex(disk_determinant_prime(m, k, p))
            if df == 0.0:
                break
            step = f / df
            k = k - step
            if not np.isfinite(k) or abs(k) > 10.0 * (abs(re1) + abs(im1) + 1.0):
                break
        if not ok:
            logger.warning("complex root seed %s for mode %d did not converge; discarded", seed, m)
            continue
        roots.append(k)
        if abs(k.imag) > tol:
            roots.append(k.conjugate())

    merged: list[complex] = []
    for k in sorted(roots, key=lambda z: (z.real, z.imag)):
        if all(abs(k - q) > 10.0 * max(tol, 1e-14) for q in merged):
            merged.append(k)
    out = []
    for k in merged:
        if re0 <= k.real <= re1 and im0 <= k.imag <= im1 and k.real > 0:
            kk = complex(k.real, 0.0) if abs(k.imag) <= tol else k
            out.append(
                DiskEigenvalue(
                    k=kk,
                    mode_m=m,
                    multiplicity=1 if m == 0 else 2,
                    residual=abs(complex(disk_determinant(m, kk, p))),
                )
            )
    out.sort(key=lambda e: (e.k.real, e.k.imag))
    return out


def determinant_grid(
    m: int,
    p: MaterialParams,
    region: tuple[float, float, float, float],
    nx: int,
    ny: int,
):
    """|det_m| on an nx x ny lattice over region (re_min, re_max, im_min, im_max).

    Returns (re_axis, im_axis, values) with values[i, j] = |det_m| at
    re_axis[i] + 1j*im_axis[j]; the CSV writer emits rows in this (re-major)
    order.
    """
    if nx < 2 or ny < 2:
        raise ConfigError("grid needs nx, ny >= 2")
    re0, re1, im0, im1 = map(float, region)
    re = np.linspace(re0, re1, nx)
    im = np.linspace(im0, im1, ny)
    kk = re[:, None] + 1j * im[None, :]
    vals = np.abs(np.asarray(disk_determinant(m, kk, p)))
    return re, im, vals
