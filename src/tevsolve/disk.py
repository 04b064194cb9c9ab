"""Exact unit-disk spectrum via the scaled angular-mode determinants.

Separation of variables on the unit disk reduces the transmission eigenvalue
problem to scalar root finding: k != 0 is an eigenvalue iff, for some mode m,

    det_m(k) = -J_m(k s) (k J'_m(k) + eta J_m(k)) + lam J'_m(k s) k s J_m(k) = 0,

with s = sqrt(n).  det_m scales like (k/2)^{2m} n^{m/2} / m!^2, so the solver
works with D_m = det_m / [(k/2)^m/m! (k s/2)^m/m!].  With F_m(z) = J_m(z)
m!/(z/2)^m (DLMF 10.16.9) and k J'_m = m J_m - k J_{m+1} (DLMF 10.6.2),

    D_m(k) = (m (lam - 1) - eta) F_m(k) F_m(k s)
             + k^2/(2(m+1)) [F_m(k s) F_{m+1}(k) - lam n F_m(k) F_{m+1}(k s)]:

entire, even, real for real k, with D_m(0) = m (lam - 1) - eta at every order.
Real roots come from a sign-change scan of all of a study's points and modes
at once (F at k once, at k s once per distinct n) and bisection one mode at a
time; those in a complex rectangle from argument-principle counts and moments
on boxes (complex_roots).

Mode m = 0 gives simple eigenvalues; every m >= 1 eigenvalue carries the
two-dimensional angular eigenspace (e^{+imt}, e^{-imt}) and is recorded once
with multiplicity 2.  Ordering and "first eigenvalue" semantics count
distinct k values, the way the reference tables list them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, NumericalFailure, RangeError, SingularMatrix
from .linalg import _map
from .materials import MaterialParams
from .special import bessel_j, bessel_j_prime

MAX_MODE = 169  # D_m takes J_{m+1}: special's orders end at 170
DEFAULT_M_MAX = 10
DEFAULT_K_MIN = 1.0e-3
_SCAN_STEP_CAP = 0.01
_SCAN_STEP_FLOOR = 1.0e-4
_SCAN_PIECE = 1024  # grid points per scan task
_MAX_ZEROS, _MAX_SPLITS, _POLISH_STEPS = 3, 40, 8  # per box, per search, per root
_RE_FLOOR = 1.0e-6  # the search keeps re k >= 1e-6, off k = 0, a root when eta = m (lam - 1)
_J_FLOOR = 1.0e-280  # scipy's jv returns 0 for |J| below about 1e-289


@dataclass(frozen=True)
class DiskEigenvalue:
    """A root of D_m: eigenvalue k, its mode index, multiplicity, and residual
    |D_m(k)|, which unlike |det_m| does not underflow at high m and small k."""

    k: complex
    mode_m: int
    multiplicity: int
    residual: float


def disk_determinant(m, k, p):
    """Evaluate D_m(k); vectorized over k, entire and even in k, real for real k.

    p is one MaterialParams, or a sequence of them: the result then has one
    row per point, (len(p),) + shape(k), each bitwise the one-point value.  A
    sequence of orders m puts one row per order ahead of those, within 1e-12 of
    the sum of the magnitudes of D_m's terms of the one-order value."""
    orders = (m,) if np.ndim(m) == 0 else tuple(m)
    points = (p,) if isinstance(p, MaterialParams) else tuple(p)
    k = np.asarray(k)
    f, f1, o = _f_rows(orders, k)
    ck2 = k * k / (2 * o + 2)
    out = np.empty((len(orders), len(points)) + k.shape, np.result_type(k, f))
    for n in dict.fromkeys(q.n for q in points):
        rows = [i for i, q in enumerate(points) if q.n == n]
        f_s, f1_s, _ = _f_rows(orders, k * points[rows[0]].sqrt_n)
        a, b, d = f * f_s, ck2 * f_s * f1, n * ck2 * f * f1_s
        for i in rows:
            out[:, i] = (o * (points[i].lam - 1) - points[i].eta) * a + b - points[i].lam * d
    out = out[:, 0] if isinstance(p, MaterialParams) else out
    return out[0] if np.ndim(m) == 0 else out


def _f_rows(orders, z):
    """F_o(z) and F_{o+1}(z) per order o (rows), and the orders shaped to match;
    for one order, _f_top's two values and the order.  Below F_T, T = max(orders)
    + 1, F_{o-1} = F_o - z^2/(4o(o+1)) F_{o+1} (DLMF 10.6.1 scaled), stable
    downward since J is its minimal solution (Gautschi 1967).  A non-finite
    value of that table raises RangeError."""
    z = np.asarray(z)
    lo, top = min(orders), max(orders) + 1
    if len(orders) == 1:
        return (*_f_top(top, z), lo)
    f = np.empty((top - lo + 1,) + z.shape, np.result_type(z, float))  # F_lo .. F_top
    zz = z * z / 4
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        f[-2:] = _f_top(top, z)
        for o in range(top - 1, lo, -1):
            f[o - lo - 1] = f[o - lo] - zz / (o * (o + 1)) * f[o - lo + 1]
    if not np.isfinite(f).all():
        raise RangeError(f"F_{lo}..F_{top} overflowed or lost significance")
    rows = np.subtract(orders, lo)
    return f[rows], f[rows + 1], np.reshape(orders, (-1,) + (1,) * z.ndim)


def _f_top(t: int, z: np.ndarray):
    """[F_{t-1}(z), F_t(z)] from one J_t and one J'_t call: F_t = s J_t and, by
    J_{t-1} = J'_t + (t/z) J_t (DLMF 10.6.2), F_{t-1} = s (z J'_t/(2t) + J_t/2),
    with s = t!/(z/2)^t taken in log space.  Where |J_t| < 1e-280 (high t at
    small z, and z = 0) scipy's J_t has lost its digits (it flushes below about
    1e-289): there both are 10 terms of sum_i (-z^2/4)^i / (i! (o+1)_i)."""
    z = z if np.iscomplexobj(z) else np.abs(z)  # F_o is even: a real log below
    j, jp = bessel_j(t, z), bessel_j_prime(t, z)
    series = np.abs(j) < _J_FLOOR
    flat = series.any()
    half = np.where(series, 2, z) / 2 if flat else z / 2  # s stays finite at z = 0
    s = np.exp(math.lgamma(t + 1) - t * np.log(half))
    rows = [s * (half * jp / t + j / 2), s * j]
    if flat:
        o, term = np.reshape([t - 1, t], (2,) + (1,) * z.ndim), 1
        for n in range(10, 0, -1):
            term = 1 - z * z / (4 * n * (o + n)) * term
        rows = np.where(series, term, rows)
    return rows


def disk_determinant_prime(m: int, k, p: MaterialParams):
    """Analytic d/dk of D_m(k) from D_m's own F_m, F_{m+1} rows at k and k s (F,
    F1 and F_s, F1_s): by F_m' = -z F_{m+1}/(2(m+1)) and Bessel's equation (DLMF
    10.6.2, 10.2.1), with c = 1/(2(m+1)) and mu = m (1 + lam),
    D_m' = k [(1 - lam n) F F_s + c n (mu + eta) F F1_s + c (eta - mu) F_s F1
    + c^2 n k^2 (lam - 1) F1 F1_s].  No division by k: 0.0 at k = 0 (D_m is even).
    """
    f, f1, _ = _f_rows((m,), k)
    f_s, f1_s, _ = _f_rows((m,), k * p.sqrt_n)
    c, n, lam, mu = 0.5 / (m + 1), p.n, p.lam, m * (1 + p.lam)
    return k * ((1 - lam * n) * f * f_s + c * n * (mu + p.eta) * f * f1_s
                + c * (p.eta - mu) * f_s * f1 + c * c * n * k * k * (lam - 1) * f1 * f1_s)


def _bisect(m: int, a: float, b: float, fa: float, p: MaterialParams, tol: float) -> float:
    while b - a > tol:
        c = 0.5 * (a + b)
        fc = float(disk_determinant(m, c, p))
        if fc == 0.0:
            return c
        if (fa < 0) != (fc < 0):
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

    Scans each D_m on a uniform grid of spacing min(0.01, tol * 1e6),
    floored at 1e-4, brackets sign changes, and refines by bisection to an
    interval of width tol.  Each piece of 1024 grid points is one task on a
    pool of ``jobs`` threads that keeps the signs of every mode for all points
    at once; then each mode is one task that bisects each point's brackets.
    The modes merge in order, so each point's root list equals its one-point
    scan at any ``jobs``.
    k_min must be positive: k = 0 is never an eigenvalue, though D_m(0) =
    m (lam - 1) - eta vanishes when eta = m (lam - 1).
    """
    k_min, k_max = float(k_range[0]), float(k_range[1])
    if not (0 < k_min < k_max) or not np.isfinite(k_max):
        raise ConfigError(f"k_range must satisfy 0 < k_min < k_max, got {k_range}")
    if tol < 1.0e-12:
        raise ConfigError(f"tol must be >= 1e-12, got {tol}")
    if not 0 <= m_max <= MAX_MODE:
        raise ConfigError(f"m_max must be in 0..{MAX_MODE}, the supported modes, got {m_max}")
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
                residual = float(abs(disk_determinant(m, root, p)))
                out.append(DiskEigenvalue(complex(root), m, mult, residual))
            # an exact zero at a scan point is a root only between a sign change;
            # two in a row are D_m underflowing, which would hide its roots
            zeros = np.nonzero(sign[1:-1] == 0)[0] + 1
            runs = zeros[:-1][np.diff(zeros) == 1]
            if runs.size:
                raise RangeError(f"D_{m} underflows to 0 at k = {ks[runs[0]]:g} for {p}")
            for i in zeros[sign[zeros - 1] * sign[zeros + 1] < 0]:
                out.append(DiskEigenvalue(complex(ks[i]), m, mult, 0.0))
            found.append(out)
        return found

    found = _map(scan, modes, jobs)
    return [sorted((e for mode in found for e in mode[i]),
                   key=lambda e: (e.k.real, e.k.imag, e.mode_m)) for i in range(len(points))]


def complex_roots(
    m: int,
    p: MaterialParams,
    region: tuple[float, float, float, float],
    tol: float = 1.0e-10,
) -> list[DiskEigenvalue]:
    """All eigenvalues of mode m, real ones included, in the closed rectangle
    region = (re_min, re_max, im_min, im_max) of the right half-plane.

    The region, grown by 1e-3 of its size, is split into boxes until the
    argument principle counts at most 3 zeros of D_m in each, within 1e-3
    of an integer.  Moments of D_m'/D_m give them as the eigenvalues of a
    Hankel pencil (Delves and Lyness 1967; Kravanja and Van Barel 2000), and
    up to 8 Newton steps polish each until a step is at most tol.  A singular
    pencil or a polish that fails or leaves its box splits the box too.  Boxes
    do not overlap, so each root is found once; one unsettled after 40 splits
    raises NumericalFailure.  Roots within tol of the real axis are real.
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
            raise NumericalFailure(f"D_{m}: box {a}..{b} did not settle in {splits} splits")
        else:  # across the longer side, off-centre: a symmetric window is not cut on im k = 0
            w, h = (b - a).real, (b - a).imag
            cut = a + (0.4621 * w if w >= h else 0.4621j * h)
            top = complex(cut.real, b.imag) if w >= h else complex(b.real, cut.imag)
            boxes += [(a, top, splits + 1), (cut, b, splits + 1)]
    return sorted(out, key=lambda e: (e.k.real, e.k.imag))


def _inside(k: complex, a: complex, b: complex) -> bool:
    return a.real <= k.real <= b.real and a.imag <= k.imag <= b.imag


def _box_roots(m: int, p: MaterialParams, a: complex, b: complex, tol: float, rule) -> list | None:
    """The zeros of D_m in the box from corner a to b (rule: edge nodes, weights); None: split."""
    corners = np.array([a, complex(b.real, a.imag), b, complex(a.real, b.imag)])
    half = (0.5 * (np.roll(corners, -1) - corners))[:, None]  # half-edges, counterclockwise
    ks = (corners[:, None] + half + half * rule[0]).ravel()
    f = disk_determinant(m, ks, p)
    if not np.all(np.abs(f) >= np.finfo(float).tiny):  # zero or subnormal: no digits left
        return None
    g = disk_determinant_prime(m, ks, p) / f * (half * rule[1]).ravel()
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
    """|D_m| on an nx x ny lattice over region (re_min, re_max, im_min, im_max).

    Returns (re_axis, im_axis, values) with values[i, j] = |D_m| at
    re_axis[i] + 1j*im_axis[j]; the CSV writer emits rows in this (re-major)
    order.
    """
    if nx < 2 or ny < 2:
        raise ConfigError("grid needs nx, ny >= 2")
    re0, re1, im0, im1 = map(float, region)
    re, im = np.linspace(re0, re1, nx), np.linspace(im0, im1, ny)
    return re, im, np.abs(disk_determinant(m, re[:, None] + 1j * im[None, :], p))
