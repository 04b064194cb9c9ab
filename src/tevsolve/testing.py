"""Reference problems with independently known answers, shared by the
selftest command and the test suite."""

from __future__ import annotations

import numpy as np
import scipy.special as sp

from . import linalg
from .errors import PoleError, RangeError
from .geometry import length_and_area, sample
from .special import bessel_j, bessel_j_prime


class MatrixPolynomial:
    """M(z) = z^2 I + z C1 + C0 as a holomorphic matrix family."""

    def __init__(self, c1: np.ndarray, c0: np.ndarray):
        self.c1 = c1
        self.c0 = c0
        self.dim = c1.shape[0]

    def __call__(self, z: complex) -> np.ndarray:
        return z * z * np.eye(self.dim) + z * self.c1 + self.c0


def quadratic_matrix_poly():
    """A 3x3 quadratic matrix polynomial built from chosen eigenpairs.

    The eigenvalues {1 +/- 0.3i, 2} lie inside the disk |z - 1.5| < 1.2 with
    linearly independent eigenvectors; {4.5, 5 +/- 1i} lie outside.  Returns
    (polynomial, companion_eigenvalues) where the second entry is the
    spectrum recomputed independently from the companion linearization
    [[0, I], [-C0, -C1]].
    """
    lams = np.array([1 + 0.3j, 1 - 0.3j, 2.0, 4.5, 5 + 1j, 5 - 1j])
    rng = np.random.Generator(np.random.Philox(2024))
    while True:
        V = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        G = np.vstack([V, V * lams[None, :]])  # 6x6
        if np.linalg.cond(G) < 1e3:
            break
    rhs = -V * lams[None, :] ** 2
    # [C0 C1] [V; V Lam] = -V Lam^2
    c0c1 = linalg.lu_apply(linalg.lu_factor(G.T), rhs.T).T
    c0, c1 = c0c1[:, :3], c0c1[:, 3:]
    poly = MatrixPolynomial(c1, c0)
    companion = np.block(
        [[np.zeros((3, 3)), np.eye(3)], [-c0, -c1]]
    )
    return poly, np.linalg.eigvals(companion)


def bessel_j_positive_root(m: int, index: int) -> float:
    """index-th positive root j_{m,index} of J_m, with |J_m(root)| <= 1e-12."""
    if m != int(m) or not 0 <= m <= 10:
        raise RangeError(f"positive roots are tabulated for integer orders 0..10, got {m!r}")
    if not 1 <= index <= 20:
        raise RangeError(f"root index must be in 1..20, got {index}")
    return float(sp.jn_zeros(int(m), index)[-1])


def circle_mode_symbol(m: int, k, p):
    """Scalar symbol of the boundary-integral operator on the unit circle.

    mu_m(k) = lam k s J'_m(ks)/J_m(ks) - k J'_m(k)/J_m(k) - eta,  s = sqrt(n).

    Vanishes exactly at the roots of det_m (it equals det_m(k) divided by
    J_m(ks) J_m(k)) and is the analytic oracle for the assembled circle
    operator.  Raises PoleError within 1e-13 (relative) of a Bessel zero.
    """
    s = p.sqrt_n
    jm_s = np.asarray(bessel_j(m, np.asarray(k) * s))
    jm = np.asarray(bessel_j(m, k))
    if np.any(np.abs(jm_s) < 1.0e-13) or np.any(np.abs(jm) < 1.0e-13):
        raise PoleError(f"J_{m} vanishes at the evaluation point; symbol has a pole")
    term_w = p.lam * np.asarray(k) * s * np.asarray(bessel_j_prime(m, np.asarray(k) * s)) / jm_s
    term_v = np.asarray(k) * np.asarray(bessel_j_prime(m, k)) / jm
    out = term_w - term_v - p.eta
    return out if out.ndim else out[()]


# ---------------------------------------------------------------------------
# transmission eigenvalue oracles, independent of the determinant scan and of
# the boundary-integral + Beyn path
# ---------------------------------------------------------------------------
def disk_root_mp(p, k0: float, m_max: int) -> tuple[int, float]:
    """Root of det_m nearest to k0 over the modes m <= m_max, as (m, k).

    Each mode is polished from k0 by mpmath's secant iteration at 40 digits,
    with mpmath's own Bessel functions, so the result shares no code with the
    double-precision scan in :mod:`tevsolve.disk`.  Needs mpmath.
    """
    import mpmath as mp

    dps = 40
    best: tuple[int, float] | None = None
    with mp.workdps(dps):
        s, eta, lam = mp.sqrt(p.n), mp.mpf(p.eta), mp.mpf(p.lam)

        for m in range(m_max + 1):
            def det_m(k):
                j_w, j_v = mp.besselj(m, k * s), mp.besselj(m, k)
                dj_w, dj_v = mp.besselj(m, k * s, 1), mp.besselj(m, k, 1)
                return -j_w * (k * dj_v + eta * j_v) + lam * dj_w * k * s * j_v

            x0 = mp.mpf(k0)
            try:
                root = mp.findroot(det_m, (x0, x0 + mp.mpf("1e-6")), tol=mp.mpf(10) ** (2 - dps))
            except (ValueError, ZeroDivisionError):
                continue  # the secant iteration left mode m without converging
            if best is None or abs(root - x0) < abs(best[1] - k0):
                best = (m, float(root))
    if best is None:
        raise ValueError(f"no det_m root near {k0} for m <= {m_max}")
    return best


def small_k_expansion(curve, p) -> float:
    """First eigenvalue from the small-wavenumber expansion
    k1^2 ~ -eta L / (A (lam n - 1)), L the perimeter and A the area.

    Valid when the right-hand side is small and positive (|eta| << 1 with
    eta and lam n - 1 of opposite signs); its error is O(k1^3).
    """
    length, area = length_and_area(curve)
    k_sq = -p.eta * length / (area * (p.lam * p.n - 1.0))
    if k_sq <= 0:
        raise ValueError(f"expansion has no positive root for {p}")
    return float(np.sqrt(k_sq))


def fourier_bessel_sigma(curve, p, k: float, order: int) -> float:
    """Method-of-particular-solutions residual of the transmission problem.

    Expands w = sum_m J_m(k sqrt(n) r) (a_m cos m t + b_m sin m t) and v the
    same way with J_m(k r), m <= order, collocates w = v and
    lam dw/dnu = dv/dnu + eta v at boundary points, and returns the smallest
    singular value of the boundary block of the orthonormalised basis
    (the subspace angle of Betcke & Trefethen, SIAM Rev. 47, 2005).  It
    vanishes at an eigenvalue up to the truncation error of the expansion;
    the interior rows keep the trivial solution out.  Modes localised at the
    boundary with angular order m need ``order`` > m.
    """
    n_cols = 2 * order + 1
    nb = 2 * n_cols + 16  # oversampled collocation
    bdry = sample(curve, nb)
    xb = bdry.points
    xi = np.concatenate([f * xb[::2] for f in (0.3, 0.6, 0.85)])  # interior (star-shaped D)

    def basis(kappa, x, nu=None):
        r, th = np.hypot(x[:, 0], x[:, 1]), np.arctan2(x[:, 1], x[:, 0])
        m = np.arange(order + 1)
        jm = sp.jv(m[None, :], kappa * r[:, None])
        cos, sin = np.cos(m[None, :] * th[:, None]), np.sin(m[None, :] * th[:, None])
        val = np.hstack([jm * cos, (jm * sin)[:, 1:]])
        if nu is None:
            return val
        djm = kappa * sp.jvp(m[None, :], kappa * r[:, None])
        jr = m[None, :] * jm / r[:, None]
        nr = (nu[:, 0] * np.cos(th) + nu[:, 1] * np.sin(th))[:, None]
        nt = (-nu[:, 0] * np.sin(th) + nu[:, 1] * np.cos(th))[:, None]
        dnu = np.hstack([djm * cos * nr - jr * sin * nt, (djm * sin * nr + jr * cos * nt)[:, 1:]])
        return val, dnu

    w_b, w_n = basis(k * np.sqrt(p.n), xb, bdry.normals)
    v_b, v_n = basis(k, xb, bdry.normals)
    zeros = np.zeros((len(xi), n_cols))
    a = np.block([
        [w_b, -v_b],
        [p.lam * w_n, -v_n - p.eta * v_b],
        [basis(k * np.sqrt(p.n), xi), zeros],
        [zeros, basis(k, xi)],
    ])
    norms = np.linalg.norm(a, axis=0)
    a = a[:, norms > 0] / norms[norms > 0]  # orders far above k r underflow to 0
    q, _ = np.linalg.qr(a)
    return float(np.linalg.svd(q[: 2 * nb], compute_uv=False)[-1])


def fourier_bessel_root(curve, p, k0: float, order: int, halfwidth: float = 1.0e-3
                        ) -> tuple[float, float]:
    """Eigenvalue within halfwidth of k0 as the minimiser of fourier_bessel_sigma.

    Returns (k, sigma_min(k)).  Raises ValueError when the minimum sits on the
    search window's edge, i.e. there is no eigenvalue near k0.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda k: fourier_bessel_sigma(curve, p, k, order),
        bounds=(k0 - halfwidth, k0 + halfwidth), method="bounded",
        options={"xatol": 1.0e-10},
    )
    if abs(res.x - k0) > 0.95 * halfwidth:
        raise ValueError(f"no Fourier-Bessel eigenvalue within {halfwidth} of {k0}")
    return float(res.x), float(res.fun)


def disk_zero_count(p, center: complex, radius: float, m_max: int) -> dict[int, int]:
    """Zeros of det_m inside the circle |k - center| < radius, per mode m <= m_max.

    Argument principle: det_m is entire, so its winding number along the
    circle counts its zeros inside.  It is det_m itself, from scipy's Bessel
    functions called directly: it shares no code with the solver's scaled D_m.
    det_m shrinks like (k^2 sqrt(n) / 4)^m / m!^2, so the count raises
    ValueError once it underflows (around m = 90 for k <= 3, n = 4, below the
    solver's 169).  Modes with no zero inside are omitted.
    """
    samples = 4096  # phase steps stay far below pi for m <= 90
    k = center + radius * np.exp(2j * np.pi * np.arange(samples + 1) / samples)
    s = np.sqrt(p.n)
    counts = {}
    for m in range(m_max + 1):
        j_w, j_v = sp.jv(m, k * s), sp.jv(m, k)
        det = -j_w * (k * sp.jvp(m, k) + p.eta * j_v) + p.lam * sp.jvp(m, k * s) * k * s * j_v
        if not np.all(np.isfinite(det) & (np.abs(det) > 1e-280)):
            raise ValueError(f"det_{m} underflows on the circle; lower m_max")
        winding = int(round(np.sum(np.angle(det[1:] / det[:-1])) / (2.0 * np.pi)))
        if winding:
            counts[m] = winding
    return counts
