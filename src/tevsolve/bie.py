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

Only the Bessel/Hankel kernels depend on k; the sample owns the rest
(CurveSample.nystrom), so that off the diagonal each assembly is one
multiply-add per kernel pair, with A_S, A_K, B_K as that property states:

    S_k = J_0(k r) * A_S + H1_0(k r) * (i h/4) |x'(tau)|,  h = 2 pi/N,
    K^T_k = k [J_1(k r) * A_K + H1_1(k r) * B_K].

Each kernel call hands ``special`` the kernel table of the node distances,
the last entry of CurveSample.nystrom: the kernels at the distinct distances
come from one Chebyshev fit of 41 Amos points per call, or, for small N and
past the fit's reach (|k| diam above about 35), from one Amos evaluation per
distinct distance.

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

import numpy as np

from . import linalg
from .errors import ConfigError, InteriorResonance, SingularMatrix
from .geometry import CurveSample
from .linalg import _map
from .materials import MaterialParams
from .special import bessel_j, hankel1

MIN_NODES = 16


def _check_wavenumber(k: complex) -> complex:
    k = complex(k)
    if k.real <= 0:
        raise ConfigError(f"wavenumber must have re(k) > 0, got {k}")
    return k


def _tables(s: CurveSample):
    if s.n < MIN_NODES:
        raise ConfigError(f"boundary assembly needs at least {MIN_NODES} nodes, got {s.n}")
    return s.nystrom


def _kernel_pair(m: int, z: np.ndarray, table, a: np.ndarray, b) -> np.ndarray:
    """J_m(z) * a + H1_m(z) * b."""
    out = bessel_j(m, z, table=table) * a
    out += hankel1(m, z, table=table) * b
    return out


def assemble_single_layer(sample: CurveSample, k: complex) -> np.ndarray:
    """N x N Nystrom matrix of the single-layer operator S_k on the sample.

    Kernel (i/4) H1_0(k r) |x'(tau)|; the diagonal of the smooth part carries
    the analytic limit (i/4 - gamma/(2 pi) - ln(k |x'(t)|/2)/(2 pi)) |x'(t)|.
    """
    k = _check_wavenumber(k)
    r_safe, a_s, _, _, table = _tables(sample)
    sp, h = sample.speeds, 2.0 * np.pi / sample.n
    S = _kernel_pair(0, k * r_safe, table, a_s, (0.25j * h) * sp)
    limit = (0.25j - np.euler_gamma / (2.0 * np.pi) - np.log(k * sp / 2.0) / (2.0 * np.pi)) * sp
    np.fill_diagonal(S, np.diagonal(a_s) + h * limit)  # a_s_ii = -R_0 sp_i / (4 pi)
    return S


def assemble_adjoint_double_layer(sample: CurveSample, k: complex) -> np.ndarray:
    """N x N Nystrom matrix of the adjoint double-layer operator K^T_k.

    Kernel -(ik/4) H1_1(k r) (nu(t) . (x(t)-x(tau))) / r * |x'(tau)|, split the
    same way; the diagonal is h times the curvature limit -kappa(t) |x'(t)| / (4 pi)
    of the static part (the wavenumber-dependent remainder vanishes on the
    diagonal).
    """
    k = _check_wavenumber(k)
    r_safe, _, a_k, b_k, table = _tables(sample)
    K = _kernel_pair(1, k * r_safe, table, a_k, b_k)
    K *= k
    np.fill_diagonal(K, (-0.5 / sample.n) * sample.curvatures * sample.speeds)  # h/(4 pi) = 1/(2N)
    return K


def neumann_trace_matrix(sample: CurveSample, k: complex) -> np.ndarray:
    """Interior Neumann trace of the single-layer potential: I/2 + K^T_k."""
    A = assemble_adjoint_double_layer(sample, k)
    A.flat[::sample.n + 1] += 0.5
    return A


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

    Memoizes the trace-ratio matrices P(k) per wavenumber (the dominant cost:
    two assemblies plus an LU), so the points of a study that revisit the same
    contour nodes with different (lam, eta), or a node whose k sqrt(n) is
    another node's k, reuse them.  The memo is a dict shared by the copies that
    with_params makes.  Only retain drops ratios, and the studies make one
    family per contour, so each ratio is freed with its contour at the latest.
    """

    def __init__(self, sample: CurveSample, params: MaterialParams):
        self.sample = sample
        self.params = params
        _tables(sample)  # built now, before a pool's threads share the sample
        self._ratios = {}

    @property
    def dim(self) -> int:
        return self.sample.n

    def with_params(self, params: MaterialParams) -> "HelmholtzNep":
        """Same curve and memo, different material parameters."""
        other = copy.copy(self)
        other.params = params
        return other

    def _ratio(self, k: complex) -> np.ndarray:
        # _trace_ratio is looked up per call, so a patched one takes effect; two
        # threads may build one ratio, as with functools.cache, so prefetch dedups
        ratio = self._ratios.get(k)
        if ratio is None:
            ratio = self._ratios[k] = _trace_ratio(self.sample, k)
        return ratio

    def _wavenumbers(self, zs) -> dict:
        """The wavenumbers of the trace ratios of M(z), z in zs, each once."""
        return dict.fromkeys(k for z in map(_check_wavenumber, zs)
                             for k in (z * self.params.sqrt_n, z))

    def __call__(self, z: complex) -> np.ndarray:
        z = _check_wavenumber(z)
        p = self.params
        M = p.lam * self._ratio(z * p.sqrt_n) - self._ratio(z)
        M.flat[::self.dim + 1] -= p.eta
        return M

    def prefetch(self, zs, jobs: int) -> None:
        """Build the trace ratios of M(z) at every z in zs on a pool of ``jobs``
        threads, each wavenumber once."""
        _map(self._ratio, list(self._wavenumbers(zs)), jobs)

    def retain(self, zs) -> None:
        """Drop from the shared memo every trace ratio that M(z), z in zs, does not use."""
        for k in self._ratios.keys() - self._wavenumbers(zs).keys():
            del self._ratios[k]
