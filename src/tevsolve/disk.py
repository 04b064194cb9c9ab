"""Exact unit-disk spectrum via the angular-mode determinants.

Separation of variables on the unit disk reduces the transmission eigenvalue
problem to scalar root finding: for each integer mode m >= 0,

    det_m(k) = -J_m(k s) (k J'_m(k) + eta J_m(k)) + lam J'_m(k s) k s J_m(k),

with s = sqrt(n), and k is an eigenvalue iff det_m(k) = 0 for some m.  det_m
is entire in k and real on the real axis for real parameters, so real roots
are found by sign-change bracketing, and those in a rectangle of the complex
plane from argument-principle counts and moments on boxes (complex_roots).

det_m is bilinear in (eta, lam) once J_m and J'_m are known at k and k s, and
so is det_m' (J''_m by Bessel's equation).  The real-axis scan of a study's
points (a lambda -> 1 study, an n, eta or lambda sweep) evaluates all modes at
once: J_m once at k and at k s once per distinct n, and J'_m = (J_{m-1} -
J_{m+1}) / 2 from the same table.  Each point bisects its own brackets, so its
roots are those of a one-point scan.  Scan pieces, then modes, are pool tasks.

Mode m = 0 gives simple eigenvalues; every m >= 1 eigenvalue carries the
two-dimensional angular eigenspace (e^{+imt}, e^{-imt}) and is recorded once
with multiplicity 2.  Ordering and "first eigenvalue" semantics count
distinct k values, the way the reference tables list them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, NumericalFailure, SingularMatrix
from .linalg import _map
from .materials import MaterialParams
from .special import MAX_ORDER, bessel_j, bessel_j_prime

DEFAULT_M_MAX = 10
DEFAULT_K_MIN = 1.0e-3
_SCAN_STEP_CAP = 0.01
_SCAN_STEP_FLOOR = 1.0e-4
_SCAN_PIECE = 1024  # grid points per scan task
_MAX_ZEROS, _MAX_SPLITS, _POLISH_STEPS = 3, 40, 8  # per box, per search, per root
_RE_FLOOR = 1.0e-6  # the search keeps re k >= 1e-6, off the zero of det_m at k = 0


@dataclass(frozen=True)
class DiskEigenvalue:
    """A root of det_m: eigenvalue k, its mode index, multiplicity, residual.

    residual is the absolute |det_m(k)|, not a relative one: far below 1e-200
    at high m, and not comparable across modes."""

    k: complex
    mode_m: int
    multiplicity: int
    residual: float


def disk_determinant(m, k, p):
    """Evaluate det_m(k); vectorized over k, entire in k, real for real k.

    p is one MaterialParams, or a sequence of them: the result then has one
    row per point, (len(p),) + shape(k), each row bitwise equal to the
    one-point value.  A sequence of orders m puts one row per order ahead of
    those, equal (==) to the one-order value.  The Bessel tables (see
    _bessel_table) are made once at k, and at k sqrt(n) once per distinct n.
    """
    orders = (m,) if np.ndim(m) == 0 else tuple(m)
    points = (p,) if isinstance(p, MaterialParams) else tuple(p)
    k = np.asarray(k)
    jm, jpm = _bessel_table(orders, k)
    out = np.empty((len(orders), len(points)) + np.shape(k), np.result_type(k, jm, jpm))
    for n in dict.fromkeys(q.n for q in points):
        rows = [i for i, q in enumerate(points) if q.n == n]
        s = points[rows[0]].sqrt_n
        jm_s, jpm_s = _bessel_table(orders, k * s)
        for i in rows:
            q = points[i]
            out[:, i] = -jm_s * (k * jpm + q.eta * jm) + q.lam * jpm_s * k * s * jm
    out = out[:, 0] if isinstance(p, MaterialParams) else out
    return out[0] if np.ndim(m) == 0 else out


def _bessel_table(orders, z):
    """J_o(z) and J'_o(z) for each order o, one bessel_j call per order.

    J'_o = (J_{o-1} - J_{o+1}) / 2 (DLMF 10.6.1, J_{-1} = -J_1) where both
    neighbours are in the table, the sum scipy's jvp forms; bessel_j_prime
    otherwise, so for orders 0..M only J'_M costs a call.
    """
    j = {o: bessel_j(o, z) for o in orders}
    if 1 in j:
        j[-1] = -j[1]
    jp = [(j[o - 1] - j[o + 1]) / 2 if o - 1 in j and o + 1 in j else bessel_j_prime(o, z)
          for o in orders]
    return np.array([j[o] for o in orders]), np.array(jp)


def disk_determinant_prime(m: int, k, p: MaterialParams):
    """Analytic d/dk of det_m(k), from det_m's own J_m, J'_m table (_bessel_table)
    and Bessel's equation for J''_m (DLMF 10.2.1).  det_m is even in k, so this
    is 0.0 at k = 0 for every m.
    """
    s, lam = p.sqrt_n, p.lam
    (jm,), (jp,) = _bessel_table((m,), k)
    (jm_s,), (jp_s,) = _bessel_table((m,), k * s)
    k_or_1 = np.where(k == 0, 1, k)  # the m^2/k term: J_m(0) = 0 for m >= 1
    return (k * s * (lam - 1) * jp_s * jp - p.eta * (s * jp_s * jm + jm_s * jp)
            + (k * (1 - lam * p.n) + (lam - 1) * m * m / k_or_1) * jm_s * jm)


def _bisect(m: int, a: float, b: float, fa: float, p: MaterialParams, tol: float) -> float:
    while b - a > tol:
        c = 0.5 * (a + b)
        fc = float(disk_determinant(m, c, p))
        if fc == 0.0:
            return c
        if (fa < 0) != (fc < 0):  # signs, not fa * fc < 0: that underflows at high m
            b = c
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def real_roots(
    p: MaterialParams,
    m_max: int = DEFAULT_M_MAX,
    k_range: tuple[float, float] = (DEFAULT_K_MIN, 10.0),
    tol: float = 1.0e-10,
    jobs: int = 1,
) -> list[DiskEigenvalue]:
    """All real eigenvalues in (k_min, k_max] over modes m = 0..m_max.

    The one-point case of :func:`real_roots_many`.
    """
    return real_roots_many([p], m_max, k_range, tol, jobs)[0]


def real_roots_many(
    points,
    m_max: int = DEFAULT_M_MAX,
    k_range: tuple[float, float] = (DEFAULT_K_MIN, 10.0),
    tol: float = 1.0e-10,
    jobs: int = 1,
) -> list[list[DiskEigenvalue]]:
    """The real eigenvalues of each point in (k_min, k_max], m = 0..m_max.

    Scans each det_m on a uniform grid of spacing min(0.01, tol * 1e6),
    floored at 1e-4, brackets sign changes, and refines by bisection to an
    interval of width tol.  The grid is cut into pieces of 1024 points, each
    one task on a pool of ``jobs`` threads: it evaluates every mode for all
    points at once (see disk_determinant) and keeps the signs.  Then each mode
    is one task that bisects each point's brackets.  The modes merge in order,
    so each point's root list equals its one-point scan at any ``jobs``.
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
    h = min(_SCAN_STEP_CAP, max(tol * 1.0e6, _SCAN_STEP_FLOOR))
    points = list(points)
    if not points:
        return []
    ks = np.arange(k_min, k_max + h, h)
    ks = ks[ks <= k_max]
    modes = range(m_max + 1)

    def piece_signs(piece: np.ndarray) -> np.ndarray:
        return np.sign(disk_determinant(modes, piece, points)).astype(np.int8)

    pieces = [ks[i:i + _SCAN_PIECE] for i in range(0, len(ks), _SCAN_PIECE)]
    signs = np.concatenate(_map(piece_signs, pieces, jobs), axis=-1)  # (mode, point, k)

    def scan(m: int) -> list[list[DiskEigenvalue]]:
        mult = 1 if m == 0 else 2
        found: list[list[DiskEigenvalue]] = []
        for p, sign in zip(points, signs[m]):
            out: list[DiskEigenvalue] = []
            hits = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            for i in hits:
                root = _bisect(m, float(ks[i]), float(ks[i + 1]), float(sign[i]), p, tol)
                residual = abs(complex(disk_determinant(m, root, p)))
                out.append(DiskEigenvalue(complex(root), m, mult, residual))
            # an exact zero is a root only between a sign change; where det_m
            # underflows (high m, small k) its neighbours are zero too
            zeros = np.nonzero(sign[1:-1] == 0)[0] + 1
            for i in zeros[sign[zeros - 1] * sign[zeros + 1] < 0]:
                out.append(DiskEigenvalue(complex(ks[i]), m, mult, 0.0))
            found.append(out)
        return found

    found = _map(scan, modes, jobs)
    outs = [[e for mode in found for e in mode[i]] for i in range(len(points))]
    for out in outs:
        out.sort(key=lambda e: (e.k.real, e.k.imag, e.mode_m))
    return outs


def complex_roots(
    m: int,
    p: MaterialParams,
    region: tuple[float, float, float, float],
    tol: float = 1.0e-10,
) -> list[DiskEigenvalue]:
    """All eigenvalues of mode m, real ones included, in the closed rectangle
    region = (re_min, re_max, im_min, im_max) of the right half-plane.

    The region, grown by 1e-3 of its size, is split into boxes until the
    argument principle counts at most 3 zeros of det_m in each, within 1e-3
    of an integer.  Moments of det_m'/det_m - 2m/k (det_m has a zero of order
    2m at k = 0) give them as the eigenvalues of a Hankel pencil (Delves and
    Lyness 1967; Kravanja and Van Barel 2000); up to 8 Newton steps polish
    each until a step is at most tol.  A singular pencil or a polish that
    fails or leaves its box splits the box too.  Boxes do not overlap, so each
    root is found once; one unsettled after 40 splits raises NumericalFailure.
    Roots within tol of the real axis are reported real.
    """
    re0, re1, im0, im1 = map(float, region)
    if not (re1 > max(re0, _RE_FLOOR) and im1 > im0):
        raise ConfigError(f"region {region} must be a rectangle reaching re k > 1e-6")
    lo, hi = complex(re0, im0), complex(re1, im1)
    grow = 1.0e-3 * (hi - lo)
    boxes = [(complex(max(re0 - grow.real, _RE_FLOOR), im0 - grow.imag), hi + grow, 0)]
    rule = np.polynomial.legendre.leggauss(32)  # per box edge; built here, not at import
    out = []
    while boxes:
        a, b, splits = boxes.pop()  # lower left and upper right corners
        found = _box_roots(m, p, a, b, tol, rule)
        if found is not None:
            out += [DiskEigenvalue(k, m, 1 if m == 0 else 2, float(abs(disk_determinant(m, k, p))))
                    for k in found if _inside(k, lo, hi)]
        elif splits == _MAX_SPLITS:
            raise NumericalFailure(f"det_{m}: box {a}..{b} did not settle in {splits} splits")
        else:  # across the longer side, off-centre: a symmetric window is not cut on im k = 0
            w, h = (b - a).real, (b - a).imag
            cut = a + (0.4621 * w if w >= h else 0.4621j * h)
            top = complex(cut.real, b.imag) if w >= h else complex(b.real, cut.imag)
            boxes += [(a, top, splits + 1), (cut, b, splits + 1)]
    return sorted(out, key=lambda e: (e.k.real, e.k.imag))


def _inside(k: complex, a: complex, b: complex) -> bool:
    return a.real <= k.real <= b.real and a.imag <= k.imag <= b.imag


def _box_roots(m: int, p: MaterialParams, a: complex, b: complex, tol: float, rule) -> list | None:
    """The zeros of det_m in the box from corner a to b (rule: edge nodes, weights); None: split."""
    corners = np.array([a, complex(b.real, a.imag), b, complex(a.real, b.imag)])
    half = (0.5 * (np.roll(corners, -1) - corners))[:, None]  # half-edges, counterclockwise
    ks = (corners[:, None] + half + half * rule[0]).ravel()
    f = disk_determinant(m, ks, p)
    if not np.all(np.abs(f) >= np.finfo(float).tiny):  # zero or subnormal: no digits left
        return None
    g = (disk_determinant_prime(m, ks, p) / f - 2 * m / ks) * (half * rule[1]).ravel()
    # s_j = the sum of w^j over the zeros, w = (k - center) / radius
    center, radius = 0.5 * (a + b), 0.5 * abs(b - a)
    s = ((ks - center) / radius) ** np.arange(2 * _MAX_ZEROS)[:, None] @ g / (2j * np.pi)
    count = round(s[0].real)
    if abs(s[0] - count) > 1.0e-3 or not 0 <= count <= _MAX_ZEROS:
        return None
    if count == 0:
        return []
    hankel = np.add.outer(np.arange(count), np.arange(count))
    try:
        zeros = linalg.eig_dense(linalg.lu_apply(linalg.lu_factor(s[hankel]), s[hankel + 1]))
    except SingularMatrix:
        return None
    roots = []
    for k in (center + radius * zeros).tolist():
        for _ in range(_POLISH_STEPS):
            step = complex(disk_determinant(m, k, p)) / complex(disk_determinant_prime(m, k, p))
            k -= step
            if abs(step) <= tol or not _inside(k, a, b):
                break
        if abs(step) > tol or not _inside(k, a, b) or any(abs(k - q) <= tol for q in roots):
            return None
        roots.append(complex(k.real, 0.0) if abs(k.imag) <= tol else k)
    return roots


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
