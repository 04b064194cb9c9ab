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

On a mirror-symmetric sample, S_k, K^T_k and M(k) commute with i -> -i and
i -> N/2 - i, and are block diagonal in the orthonormal class basis Q of those
maps (Allgower, Boehmer, Georg and Miranda 1992): 61, 60, 60 and 59 rows for
the ellipse at N = 240, 61 and 59 for the kite at N = 120.  The blocks of S_k
and I/2 + K^T_k are gathered from the first N/4 + 1 rows of the assembly, each
trace ratio is solved and memoised block by block, and M(k) is the
linalg.BlockDiag of its blocks; Beyn draws its probe in these class coordinates.

HelmholtzNep owns the N x N memory of the assembly: each family keeps a list of
workspaces, (4, N, N) complex arrays for z = k r, H1_m(z), S_k and I/2 + K^T_k
(3.7 MB at N = 240), one per thread that builds its ratios at once, so at most
``jobs``, freed with the family.  Without one the assembly returns fresh arrays.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.linalg import hadamard

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


_FRESH = (None,) * 4


def _kernel_pair(m: int, k: complex, r: np.ndarray, table, a: np.ndarray, b,
                 work, slot: int) -> np.ndarray:
    """J_m(k r) * a + H1_m(k r) * b, in work[slot] of a workspace (z = k r in
    work[0], H1_m(z) * b in work[1]), or fresh for work None; bitwise equal."""
    w = _FRESH if work is None else work
    z = np.multiply(r, k, out=w[0])
    out = bessel_j(m, z, table=table, out=w[slot])
    out *= a
    tmp = hankel1(m, z, table=table, out=w[1])
    tmp *= b
    out += tmp
    return out


def assemble_single_layer(sample: CurveSample, k: complex, work=None) -> np.ndarray:
    """N x N Nystrom matrix of the single-layer operator S_k on the sample.

    Kernel (i/4) H1_0(k r) |x'(tau)|; the diagonal of the smooth part carries
    the analytic limit (i/4 - gamma/(2 pi) - ln(k |x'(t)|/2)/(2 pi)) |x'(t)|.
    With a (4, N, N) complex ``work``space (HelmholtzNep's), S_k is work[2].
    """
    k = _check_wavenumber(k)
    r_safe, a_s, _, _, table = _tables(sample)
    sp, h = sample.speeds, 2.0 * np.pi / sample.n
    S = _kernel_pair(0, k, r_safe, table, a_s, (0.25j * h) * sp, work, 2)
    limit = (0.25j - np.euler_gamma / (2.0 * np.pi) - np.log(k * sp / 2.0) / (2.0 * np.pi)) * sp
    np.fill_diagonal(S, np.diagonal(a_s) + h * limit)  # a_s_ii = -R_0 sp_i / (4 pi)
    return S


def assemble_adjoint_double_layer(sample: CurveSample, k: complex, work=None) -> np.ndarray:
    """N x N Nystrom matrix of the adjoint double-layer operator K^T_k.

    Kernel -(ik/4) H1_1(k r) (nu(t) . (x(t)-x(tau))) / r * |x'(tau)|, split the
    same way; the diagonal is h times the curvature limit -kappa(t) |x'(t)| / (4 pi)
    of the static part (the wavenumber-dependent remainder vanishes on the
    diagonal).  With a ``work``space, K^T_k is work[3].
    """
    k = _check_wavenumber(k)
    r_safe, _, a_k, b_k, table = _tables(sample)
    K = _kernel_pair(1, k, r_safe, table, a_k, b_k, work, 3)
    K *= k
    np.fill_diagonal(K, (-0.5 / sample.n) * sample.curvatures * sample.speeds)  # h/(4 pi) = 1/(2N)
    return K


def neumann_trace_matrix(sample: CurveSample, k: complex, work=None) -> np.ndarray:
    """Interior Neumann trace of the single-layer potential: I/2 + K^T_k."""
    A = assemble_adjoint_double_layer(sample, k, work)
    A.flat[::sample.n + 1] += 0.5
    return A


_RESONANCE_PIVOT_RTOL = 1.0e-12


def _mirror_classes(s: CurveSample):
    """The classes of the group G of i -> -i and i -> N/2 - i, each map only where
    it leaves the arrays the assembly reads bitwise unchanged, or None when no map
    does: per character chi, over the orbit representatives i <= N/4 that chi
    allows, the flat indices i N + g(j) in A of the block's terms and
    chi(g) w_i w_j, w_i = |stabiliser of i|^(-1/2), each of shape (|G|, n_chi, n_chi)."""
    n, i = s.n, np.arange(s.n)
    arrays = (*_tables(s)[:4], s.speeds, s.curvatures)
    maps = [i] + [p for p in (-i % n, (n // 2 - i) % n)
                  if all(np.array_equal(a[np.ix_(p, p)] if a.ndim == 2 else a[p], a) for a in arrays)]
    maps = np.array(maps + [maps[1][maps[2]]] if len(maps) == 3 else maps)
    reps = np.nonzero(maps.min(axis=0) == i)[0]
    fixed = maps[:, reps] == reps
    classes = []
    for chi in hadamard(len(maps)):
        keep = chi @ fixed != 0  # chi is 1 on the stabiliser
        w, images = 1.0 / np.sqrt(fixed[:, keep].sum(axis=0)), maps[:, reps[keep]]
        flat = reps[keep][None, :, None] * n + images[:, None, :]
        classes.append((flat, chi[:, None, None] * np.outer(w, w)))
    return classes if len(maps) > 1 else None


def _class_blocks(A: np.ndarray, classes) -> linalg.BlockDiag:
    """Q^T A Q for an A that commutes with the mirror group, gathered from A's rows
    at the representatives: block_chi[i, j] = w_i w_j sum_g chi(g) A[i, g(j)]."""
    if classes is None:
        return linalg.BlockDiag([A])
    return linalg.BlockDiag((np.take(A, flat, mode="clip") * coef).sum(axis=0)
                            for flat, coef in classes)


def _trace_ratio(sample: CurveSample, k: complex, classes, work=None) -> linalg.BlockDiag:
    """P(k) = (I/2 + K^T_k) S_k^{-1}, the Neumann-for-Dirichlet map of the
    single-layer ansatz, in the class coordinates: one ratio per block.  Raises
    InteriorResonance when S_k is singular.

    The pivot gate is looser than the generic LU tolerance because partial
    pivoting inflates the last pivot of a near-singular S_k by a couple of
    orders of magnitude; legitimate wavenumbers (off the real axis, as the
    contour quadrature nodes are) keep S_k conditioned far above this gate.
    It is taken against ||S_k||_F, which the orthogonal Q keeps.  S_k and
    I/2 + K^T_k are assembled in ``work`` when given; the ratio never shares its memory.
    """
    S_full, A_full = assemble_single_layer(sample, k, work), neumann_trace_matrix(sample, k, work)
    S, A = _class_blocks(S_full, classes), _class_blocks(A_full, classes)
    try:
        return linalg.solve_right(A, S, pivot_rtol=_RESONANCE_PIVOT_RTOL)
    except SingularMatrix as exc:
        raise InteriorResonance(k) from exc


class HelmholtzNep:
    """Callable z -> M(z), a linalg.BlockDiag in the sample's class coordinates, for a
    fixed curve sample and material parameters.

    Memoizes the trace-ratio matrices P(k) per wavenumber (the dominant cost:
    two assemblies plus an LU), so the points of a study that revisit the same
    contour nodes with different (lam, eta), or a node whose k sqrt(n) is
    another node's k, reuse them.  The memo is a dict shared by the copies that
    with_params makes.  Only retain drops ratios, and the studies make one
    family per contour, so each ratio is freed with its contour at the latest.

    Each ratio is assembled in a workspace (module docstring) from a list that
    the copies share as they share the memo: it takes a free one, or makes one
    when none is free, and gives it back when the ratio is built.
    """

    def __init__(self, sample: CurveSample, params: MaterialParams):
        self.sample = sample
        self.params = params
        self._classes = _mirror_classes(sample)  # and the tables, before a pool shares them
        self._ratios, self._workspaces = {}, []

    @property
    def dim(self) -> int:
        return self.sample.n

    def with_params(self, params: MaterialParams) -> "HelmholtzNep":
        """Same curve and memo, different material parameters."""
        other = copy.copy(self)
        other.params = params
        return other

    def _ratio(self, k: complex) -> linalg.BlockDiag:
        # _trace_ratio is looked up per call, so a patched one takes effect; two
        # threads may build one ratio, as with functools.cache, so prefetch dedups
        ratio = self._ratios.get(k)
        if ratio is None:
            try:  # list.pop is atomic, a test of the list then a pop is not
                work = self._workspaces.pop()
            except IndexError:
                work = np.empty((4, self.dim, self.dim), complex)
            try:
                ratio = self._ratios[k] = _trace_ratio(self.sample, k, self._classes, work)
            finally:
                self._workspaces.append(work)
        return ratio

    def _wavenumbers(self, zs) -> dict:
        """The wavenumbers of the trace ratios of M(z), z in zs, each once."""
        return dict.fromkeys(k for z in map(_check_wavenumber, zs)
                             for k in (z * self.params.sqrt_n, z))

    def __call__(self, z: complex) -> linalg.BlockDiag:
        z = _check_wavenumber(z)
        p = self.params
        P_w, P_v = self._ratio(z * p.sqrt_n), self._ratio(z)
        M = linalg.BlockDiag(p.lam * w - v for w, v in zip(P_w.blocks, P_v.blocks))
        for block in M.blocks:
            block.flat[::len(block) + 1] -= p.eta
        return M

    def prefetch(self, zs, jobs: int) -> None:
        """Build the trace ratios of M(z) at every z in zs on a pool of ``jobs``
        threads, each wavenumber once."""
        _map(self._ratio, list(self._wavenumbers(zs)), jobs)

    def retain(self, zs) -> None:
        """Drop from the shared memo every trace ratio that M(z), z in zs, does not use."""
        for k in self._ratios.keys() - self._wavenumbers(zs).keys():
            del self._ratios[k]
