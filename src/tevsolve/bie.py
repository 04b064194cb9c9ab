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
import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import ConfigError, GeometryError, InteriorResonance, SingularMatrix
from .geometry import CurveSample
from .materials import MaterialParams
from .special import bessel_j, hankel1

EULER_GAMMA = 0.57721566490153286061
MIN_NODES = 16
CACHE_BYTES = 192 * 1024 * 1024  # trace-ratio cache budget of one HelmholtzNep and its copies


@lru_cache(maxsize=32)
def log_quadrature_weights(n: int) -> np.ndarray:
    """Weights R_l for int_0^{2pi} f(tau) ln(4 sin^2((t_i - tau)/2)) dtau.

    Exact for trigonometric polynomials of degree < n/2 sampled at the n
    equispaced nodes; R_l couples nodes i, j with l = |i - j|.
    """
    l = np.arange(n)
    m = np.arange(1, n // 2)
    w = -(4.0 * np.pi / n) * (np.cos(2.0 * np.pi * np.outer(l, m) / n) / m).sum(axis=1)
    return w - (4.0 * np.pi / n**2) * np.cos(np.pi * l)


def _check_wavenumber(k: complex) -> complex:
    k = complex(k)
    if k.real <= 0:
        raise ConfigError(f"wavenumber must have re(k) > 0, got {k}")
    return k


def _geometry_arrays(s: CurveSample):
    if s.n < MIN_NODES:
        raise ConfigError(f"boundary assembly needs at least {MIN_NODES} nodes, got {s.n}")
    d = s.points[:, None, :] - s.points[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    off = ~np.eye(s.n, dtype=bool)
    if np.any(r[off] < 1.0e-12):
        raise GeometryError("coincident quadrature nodes; curve is degenerate")
    return d, r


def _log_factor(s: CurveSample) -> np.ndarray:
    dt = s.t[:, None] - s.t[None, :]
    return np.log(4.0 * np.sin(dt / 2.0) ** 2 + np.eye(s.n))


def _weight_matrix(s: CurveSample) -> np.ndarray:
    idx = np.abs(np.arange(s.n)[:, None] - np.arange(s.n)[None, :])
    return log_quadrature_weights(s.n)[idx]


def assemble_single_layer(sample: CurveSample, k: complex) -> np.ndarray:
    """N x N Nystrom matrix of the single-layer operator S_k on the sample.

    Kernel (i/4) H1_0(k r) |x'(tau)|; the diagonal of the smooth part carries
    the analytic limit (i/4 - gamma/(2 pi) - ln(k |x'(t)|/2)/(2 pi)) |x'(t)|.
    """
    k = _check_wavenumber(k)
    _, r = _geometry_arrays(sample)
    n, sp = sample.n, sample.speeds
    r_safe = r + np.eye(n)
    smooth = -(1.0 / (4.0 * np.pi)) * np.asarray(bessel_j(0, k * r_safe)) * sp[None, :]
    full = (0.25j) * np.asarray(hankel1(0, k * r_safe)) * sp[None, :]
    rest = full - smooth * _log_factor(sample)
    np.fill_diagonal(smooth, -(1.0 / (4.0 * np.pi)) * sp)
    np.fill_diagonal(
        rest, (0.25j - EULER_GAMMA / (2.0 * np.pi) - np.log(k * sp / 2.0) / (2.0 * np.pi)) * sp
    )
    return _weight_matrix(sample) * smooth + (2.0 * np.pi / n) * rest


def assemble_adjoint_double_layer(sample: CurveSample, k: complex) -> np.ndarray:
    """N x N Nystrom matrix of the adjoint double-layer operator K^T_k.

    Kernel -(ik/4) H1_1(k r) (nu(t) . (x(t)-x(tau))) / r * |x'(tau)|, split the
    same way; the diagonal is the curvature limit -kappa(t) |x'(t)| / (4 pi)
    of the static part (the wavenumber-dependent remainder vanishes on the
    diagonal).
    """
    k = _check_wavenumber(k)
    d, r = _geometry_arrays(sample)
    n, sp = sample.n, sample.speeds
    r_safe = r + np.eye(n)
    g = np.einsum("ik,ijk->ij", sample.normals, d) / r_safe * sp[None, :]
    smooth = (k / (4.0 * np.pi)) * np.asarray(bessel_j(1, k * r_safe)) * g
    full = -(0.25j * k) * np.asarray(hankel1(1, k * r_safe)) * g
    rest = full - smooth * _log_factor(sample)
    np.fill_diagonal(smooth, 0.0)
    np.fill_diagonal(rest, -sample.curvatures * sp / (4.0 * np.pi))
    return _weight_matrix(sample) * smooth + (2.0 * np.pi / n) * rest


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


def assemble_M(sample: CurveSample, k: complex, p: MaterialParams) -> np.ndarray:
    """The transmission eigenvalue matrix M(k) on the sampled curve."""
    k = _check_wavenumber(k)
    P_w = _trace_ratio(sample, k * p.sqrt_n)
    P_v = _trace_ratio(sample, k)
    return p.lam * P_w - P_v - p.eta * np.eye(sample.n)


class _TraceRatioCache:
    """Trace-ratio matrices P(k) of one curve sample by wavenumber, least
    recently used first out once they hold more than CACHE_BYTES; one lock
    guards the map and its byte count."""

    def __init__(self, sample: CurveSample):
        self.sample = sample
        self.entries: OrderedDict[complex, np.ndarray] = OrderedDict()
        self.nbytes = 0
        self.lock = threading.Lock()

    def get(self, k: complex) -> np.ndarray:
        with self.lock:
            hit = self.entries.get(k)
            if hit is not None:
                self.entries.move_to_end(k)
                return hit
        value = _trace_ratio(self.sample, k)
        with self.lock:
            if k not in self.entries:
                self.entries[k] = value
                self.nbytes += value.nbytes
                while self.nbytes > CACHE_BYTES and len(self.entries) > 1:
                    _, old = self.entries.popitem(last=False)
                    self.nbytes -= old.nbytes
        return value


class HelmholtzNep:
    """Callable z -> M(z) for a fixed curve sample and material parameters.

    Caches the trace-ratio matrices P(k) per wavenumber (the dominant cost:
    two assemblies plus an LU), so sweeps that revisit the same contour nodes
    with different (lam, eta) or with a second sqrt(n) factor reuse them.  The
    copies made by with_params share one cache, bounded by CACHE_BYTES in all
    and safe for concurrent callers.
    """

    def __init__(self, sample: CurveSample, params: MaterialParams):
        self.sample = sample
        self.params = params
        self._cache = _TraceRatioCache(sample)

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
        P_w = self._cache.get(z * p.sqrt_n)
        P_v = self._cache.get(z)
        return p.lam * P_w - P_v - p.eta * np.eye(self.dim)
