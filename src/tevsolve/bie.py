"""Nystrom discretization of the Helmholtz boundary operators and the
nonlinear eigenvalue matrix of the transmission problem.

The single-layer operator S_k and the adjoint double-layer operator K^T_k on
a smooth closed curve are discretized with the classical even-N quadrature
for periodic logarithmic kernels: each kernel is split as

    kernel(t, tau) = k1(t, tau) * ln(4 sin^2((t - tau)/2)) + k2(t, tau)

with k1, k2 smooth and 2*pi-periodic, the log factor integrated by the exact
trigonometric weights R_j and the smooth part by the trapezoid rule.  Both
matrices act on density values at the parameter nodes, with the arclength
factor |x'(tau)| absorbed into the kernels.  Convergence is spectral for
analytic curves; on the unit circle the matrices are circulant and the
discrete Fourier modes reproduce the analytic operator symbols to machine
precision at moderate N.

Only the Bessel/Hankel kernels depend on k: the node distances and normal
projections are built once per sample (CurveSample.chords), the weights R_j
and the log factor once per N.  The distances are bitwise symmetric under the
transpose and, for a mirror-symmetric curve, under the node mirrors, so
:mod:`special` evaluates each kernel once per orbit of those symmetries.

The eigenvalue matrix combines interior traces of single-layer ansatz fields
for the two media:

    M(k) = lam * (I/2 + K^T_{k s}) S_{k s}^{-1} - (I/2 + K^T_k) S_k^{-1} - eta I,

s = sqrt(n), acting on the shared boundary trace.  Its singular points are
the transmission eigenvalues, provided neither k nor k*s sits on an interior
Dirichlet resonance of the curve (where the single-layer operator is not
invertible); an LU pivot failure there raises InteriorResonance.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import ConfigError, InteriorResonance, SingularMatrix
from .geometry import CurveSample
from .linalg import _map
from .materials import MaterialParams
from .special import bessel_j, hankel1

EULER_GAMMA = 0.57721566490153286061
MIN_NODES = 16
# trace-ratio cache budget of one HelmholtzNep and its copies: 192 MiB // 16 N^2 matrices
CACHE_BYTES = 192 * 1024 * 1024


@lru_cache(maxsize=32)
def _log_quadrature(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n x n weights R_|i-j| and log factor ln(4 sin^2((t_i - t_j)/2))
    (0 on the diagonal).  R_l integrates f(tau) ln(4 sin^2((t_i - tau)/2))
    exactly for trigonometric polynomials f of degree < n/2."""
    l = np.arange(n)
    m = np.arange(1, n // 2)
    w = -(4.0 * np.pi / n) * (np.cos(2.0 * np.pi * np.outer(l, m) / n) / m).sum(axis=1)
    w = w - (4.0 * np.pi / n**2) * np.cos(np.pi * l)
    weights = w[np.abs(l[:, None] - l[None, :])]
    t = 2.0 * np.pi * l / n
    dt = t[:, None] - t[None, :]
    log = np.log(4.0 * np.sin(dt / 2.0) ** 2 + np.eye(n))
    weights.flags.writeable = log.flags.writeable = False
    return weights, log


def _check_wavenumber(k: complex) -> complex:
    k = complex(k)
    if k.real <= 0:
        raise ConfigError(f"wavenumber must have re(k) > 0, got {k}")
    return k


def _safe_distances(s: CurveSample) -> np.ndarray:
    """Node distances, 1 on the diagonal (where limits replace the kernels)."""
    if s.n < MIN_NODES:
        raise ConfigError(f"boundary assembly needs at least {MIN_NODES} nodes, got {s.n}")
    return s.chords[0] + np.eye(s.n)


def _log_split(smooth: np.ndarray, full: np.ndarray, smooth_diag, rest_diag) -> np.ndarray:
    """Nystrom matrix of the kernel full = smooth * log + rest with the given
    diagonal limits: smooth (overwritten) by the weights R, rest by the trapezoid rule."""
    n = smooth.shape[0]
    weights, log = _log_quadrature(n)
    rest = full - smooth * log
    np.fill_diagonal(smooth, smooth_diag)
    np.fill_diagonal(rest, rest_diag)
    return weights * smooth + (2.0 * np.pi / n) * rest


def assemble_single_layer(sample: CurveSample, k: complex) -> np.ndarray:
    """N x N Nystrom matrix of the single-layer operator S_k on the sample.

    Kernel (i/4) H1_0(k r) |x'(tau)|; the diagonal of the smooth part carries
    the analytic limit (i/4 - gamma/(2 pi) - ln(k |x'(t)|/2)/(2 pi)) |x'(t)|.
    """
    k = _check_wavenumber(k)
    r_safe, sp = _safe_distances(sample), sample.speeds
    smooth = -(1.0 / (4.0 * np.pi)) * np.asarray(bessel_j(0, k * r_safe)) * sp[None, :]
    full = (0.25j) * np.asarray(hankel1(0, k * r_safe)) * sp[None, :]
    rest_diag = (0.25j - EULER_GAMMA / (2.0 * np.pi) - np.log(k * sp / 2.0) / (2.0 * np.pi)) * sp
    return _log_split(smooth, full, -(1.0 / (4.0 * np.pi)) * sp, rest_diag)


def assemble_adjoint_double_layer(sample: CurveSample, k: complex) -> np.ndarray:
    """N x N Nystrom matrix of the adjoint double-layer operator K^T_k.

    Kernel -(ik/4) H1_1(k r) (nu(t) . (x(t)-x(tau))) / r * |x'(tau)|, split the
    same way; the diagonal is the curvature limit -kappa(t) |x'(t)| / (4 pi)
    of the static part (the wavenumber-dependent remainder vanishes on the
    diagonal).
    """
    k = _check_wavenumber(k)
    r_safe, sp = _safe_distances(sample), sample.speeds
    g = sample.chords[1] / r_safe * sp[None, :]
    smooth = (k / (4.0 * np.pi)) * np.asarray(bessel_j(1, k * r_safe)) * g
    full = -(0.25j * k) * np.asarray(hankel1(1, k * r_safe)) * g
    return _log_split(smooth, full, 0.0, -sample.curvatures * sp / (4.0 * np.pi))


def neumann_trace_matrix(sample: CurveSample, k: complex) -> np.ndarray:
    """Interior Neumann trace of the single-layer potential: I/2 + K^T_k."""
    return 0.5 * np.eye(sample.n) + assemble_adjoint_double_layer(sample, k)


_RESONANCE_PIVOT_RTOL = 1.0e-12


def _trace_ratio(sample: CurveSample, k: complex) -> np.ndarray:
    """P(k) = (I/2 + K^T_k) S_k^{-1}, the Neumann-for-Dirichlet map of the
    single-layer ansatz.  Raises InteriorResonance when S_k is singular.

    The pivot gate is looser than the generic LU tolerance because partial
    pivoting inflates the last pivot of a near-singular S_k by a couple of
    orders of magnitude; legitimate wavenumbers (off the real axis, as the
    contour quadrature nodes are) keep S_k conditioned far above this gate.
    """
    S = assemble_single_layer(sample, k)
    A = neumann_trace_matrix(sample, k)
    try:
        return linalg.solve_right(A, S, pivot_rtol=_RESONANCE_PIVOT_RTOL)
    except SingularMatrix as exc:
        raise InteriorResonance(k) from exc


class HelmholtzNep:
    """Callable z -> M(z) for a fixed curve sample and material parameters.

    Caches the trace-ratio matrices P(k) per wavenumber (the dominant cost:
    two assemblies plus an LU), so sweeps that revisit the same contour nodes
    with different (lam, eta) or with a second sqrt(n) factor reuse them.  The
    cache is a thread-safe functools.lru_cache of CACHE_BYTES // (16 N^2)
    matrices (at least one), shared by the copies that with_params makes.
    """

    def __init__(self, sample: CurveSample, params: MaterialParams):
        self.sample = sample
        self.params = params
        # _trace_ratio is looked up per call, so a patched one takes effect
        self._cache = lru_cache(maxsize=max(1, CACHE_BYTES // (16 * sample.n**2)))(
            lambda k: _trace_ratio(sample, k))

    @property
    def dim(self) -> int:
        return self.sample.n

    def with_params(self, params: MaterialParams) -> "HelmholtzNep":
        """Same curve and cache, different material parameters."""
        other = copy.copy(self)
        other.params = params
        return other

    def __call__(self, z: complex) -> np.ndarray:
        z = _check_wavenumber(z)
        p = self.params
        P_w = self._cache(z * p.sqrt_n)
        P_v = self._cache(z)
        return p.lam * P_w - P_v - p.eta * np.eye(self.dim)

    def prefetch(self, zs, jobs: int) -> None:
        """Build the trace ratios of M(z) at every z in zs on a pool of ``jobs``
        threads, each wavenumber once, unless they overflow the cache together."""
        ks = list(dict.fromkeys(k for z in map(_check_wavenumber, zs)
                                for k in (z * self.params.sqrt_n, z)))
        if len(ks) <= self._cache.cache_info().maxsize:
            _map(self._cache, ks, jobs)
