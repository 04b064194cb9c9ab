"""Contour-integral eigensolver for holomorphic nonlinear eigenvalue problems.

Reduces M(z) w = 0 inside a circular contour to a small dense linear
eigenproblem through the two resolvent moments

    A0 = (1/2 pi i). oint M(z)^{-1} V dz,
    A1 = (1/2 pi i) . oint z M(z)^{-1} V dz,

computed by the trapezoid rule on the circle with a random probe matrix V.
A rank-revealing SVD of A0 truncates the probe space; the reduced matrix
B = U0^H A1 W0 S0^{-1} has the eigenvalues of M inside the contour, up to
the trapezoid error; a Newton step on M itself polishes each simple one.
Internally the first moment is taken in the shifted/scaled variable
(z - center)/radius, which is algebraically identical and better conditioned
for contours far from the origin.

Quadrature nodes sit at the half-offset angles 2 pi (j + 1/2) / N.  The
offset keeps nodes strictly off the real axis (where interior Dirichlet
resonances of the underlying boundary operators live) and clear of the
origin for contours touching re(z) = 0, at identical trapezoid accuracy.

Limitations inherited from the first-order moment pair: two eigenvalues
inside one contour whose eigenvectors are (numerically) parallel cannot be
separated -- on the unit disk this happens for two roots of the same angular
mode, e.g. a complex-conjugate pair straddling the real axis.  Use a contour
containing only one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CapacityExceeded, ConfigError
from .linalg import _map

_NOISE_FLOOR_FACTOR = 100.0
_NEWTON_DIFF_STEP = 1.0e-7  # forward-difference step of the polish, times the radius


@dataclass(frozen=True)
class ContourSpec:
    """Circular contour: center, radius, and trapezoid node count.

    Domain constraints of the nonlinear family itself (the Helmholtz boundary
    operators need re(z) > 0 at every node, for instance) are enforced by the
    family when evaluated, not here.
    """

    center: complex
    radius: float
    quad_points: int = 24

    def __post_init__(self):
        if not np.isfinite(self.center) or not np.isfinite(self.radius):
            raise ConfigError("contour center and radius must be finite")
        if self.radius <= 0:
            raise ConfigError(f"contour radius must be positive, got {self.radius}")
        if self.quad_points < 8 or self.quad_points % 2:
            raise ConfigError(f"quad_points must be even and >= 8, got {self.quad_points}")

    def angles(self) -> np.ndarray:
        n = self.quad_points
        return 2.0 * np.pi * (np.arange(n) + 0.5) / n

    def nodes(self) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * self.angles())

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius

    def label(self) -> str:
        mu = self.center
        mu_s = f"{mu.real:g}" if mu.imag == 0 else f"{mu.real:g}{mu.imag:+g}i"
        return f"mu={mu_s},R={self.radius:g}"


@dataclass(frozen=True)
class BeynConfig:
    """Probe size, truncation and acceptance tolerances, and probe RNG seed."""

    probe_columns: int = 20
    rank_tol: float = 1.0e-4
    residual_tol: float = 1.0e-4
    seed: int = 0

    def __post_init__(self):
        if self.probe_columns < 1:
            raise ConfigError("probe_columns must be >= 1")
        if self.rank_tol <= 0 or self.residual_tol <= 0:
            raise ConfigError("rank_tol and residual_tol must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class NepEigenvalue:
    """Accepted eigenvalue: location, relative residual, multiplicity, contour."""

    k: complex
    residual: float
    multiplicity: int
    contour: ContourSpec | None = field(default=None, compare=False)


def residual(nep, k: complex) -> float:
    """Relative residual sigma_min(M(k)) / sigma_max(M(k)), in [0, 1]."""
    sv = linalg.singular_values(nep(k))
    if sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def _cluster(values: list[complex], radius: float) -> list[list[int]]:
    """Greedy chaining of indices whose values lie within radius of a cluster member."""
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    clusters: list[list[int]] = []
    for i in order:
        for cluster in clusters:
            if any(abs(values[i] - values[j]) <= radius for j in cluster):
                cluster.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def beyn_solve(nep, contour: ContourSpec, cfg: BeynConfig = BeynConfig(),
               jobs: int = 1) -> list[NepEigenvalue]:
    """Eigenvalues of the holomorphic family ``nep`` strictly inside ``contour``.

    ``nep`` maps z to a square complex matrix and exposes ``dim``.  Returned
    eigenvalues are filtered to the open disk and to relative residual
    <= cfg.residual_tol; reduced-problem copies within 10 * residual_tol merge
    into one entry whose multiplicity is the cluster size and whose location
    is the member with the smallest residual.  A simple eigenvalue (cluster of
    one) is then polished by one Newton step on M (see _newton_polish), which
    squares the trapezoid error of the reduced problem; clusters are reported
    unpolished.

    ``jobs`` threads share the work: the node solves, then three batches --
    the candidates' residuals, the polish steps, the polished residuals.  A
    family with a ``prefetch(zs, jobs)`` method (HelmholtzNep) first builds
    the parts of a batch's M(z) on the pool.  Results are deterministic for
    fixed seed, also under ``jobs`` > 1 (moments accumulate in node order).

    Raises CapacityExceeded when the zeroth moment is numerically full rank,
    and propagates InteriorResonance from quadrature nodes where the
    underlying boundary operators are singular.
    """
    n_dim = nep.dim
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    V = rng.standard_normal((n_dim, cfg.probe_columns)) + 1j * rng.standard_normal(
        (n_dim, cfg.probe_columns)
    )
    nodes = contour.nodes()
    phases = np.exp(1j * contour.angles())

    def solve_node(j: int) -> np.ndarray:
        return linalg.lu_solve(nep(nodes[j]), V)

    sols = _map(solve_node, range(len(nodes)), jobs)

    scale = contour.radius / len(nodes)
    a0 = np.zeros((n_dim, cfg.probe_columns), dtype=complex)
    a1s = np.zeros_like(a0)
    gross = 0.0
    for j, y in enumerate(sols):  # fixed order: bit-reproducible under jobs > 1
        a0 += phases[j] * y
        a1s += phases[j] ** 2 * y
        gross += np.linalg.norm(y)
    a0 *= scale
    a1s *= scale
    noise_floor = _NOISE_FLOOR_FACTOR * np.finfo(float).eps * scale * gross

    U, s, W = linalg.svd(a0)
    cut = max(cfg.rank_tol * s[0], noise_floor)
    rank = int(np.sum(s > cut))
    if rank == 0:
        return []
    if rank == cfg.probe_columns and cfg.probe_columns <= n_dim:
        # probe space saturated with no headroom: more eigenvalues may hide
        raise CapacityExceeded(
            f"moment matrix numerically full rank ({rank}); increase probe_columns "
            f"(l = {cfg.probe_columns}) or shrink the contour {contour.label()}"
        )
    U0, s0, W0 = U[:, :rank], s[:rank], W[:, :rank]
    B = U0.conj().T @ a1s @ W0 / s0[None, :]
    reduced = linalg.eig_dense(B)
    candidates = contour.center + contour.radius * reduced

    inside = [complex(z) for z in candidates if contour.contains(z)]
    kept = [(z, r) for z, r in zip(inside, _residuals(nep, inside, jobs))
            if r <= cfg.residual_tol]
    if not kept:
        return []

    clusters = _cluster([z for z, _ in kept], 10.0 * cfg.residual_tol)
    best = [kept[min(cluster, key=lambda i: kept[i][1])] for cluster in clusters]
    simple = [i for i, cluster in enumerate(clusters) if len(cluster) == 1]
    best = _newton_polish(nep, contour, best, simple, 10.0 * cfg.residual_tol, jobs)
    out = [NepEigenvalue(k=z, residual=r, multiplicity=len(cluster), contour=contour)
           for (z, r), cluster in zip(best, clusters)]
    out.sort(key=lambda e: (e.k.real, e.k.imag))
    return out


def _residuals(nep, zs: list[complex], jobs: int) -> list[float]:
    """residual(nep, z) for each z in zs, on the pool, after nep.prefetch(zs, jobs)."""
    if hasattr(nep, "prefetch"):
        nep.prefetch(zs, jobs)
    return _map(lambda z: residual(nep, z), zs, jobs)


def _newton_polish(nep, contour: ContourSpec, estimates: list[tuple[complex, float]],
                   simple: list[int], max_move: float, jobs: int
                   ) -> list[tuple[complex, float]]:
    """One Newton step from each simple eigenvalue estimate (z, r) = estimates[i],
    i in simple, with residual r.

    The step is taken on g(w) = y^H M(w) x, x and y the right and left
    singular vectors of sigma_min(M(z)) (a two-sided Rayleigh functional):
    g vanishes within O(|z - k|^2) of the eigenvalue k, so the step squares
    the error of z, which the trapezoid rule leaves at up to ~1e-4 for
    eigenvalues near the contour or near other eigenvalues.  g' is a forward
    difference.  The step is kept only if it stays inside the contour, moves
    at most max_move and lowers the residual; (z, r) is kept otherwise.  The
    estimates' M(z + h), steps and new residuals each run as one batch on the
    pool.
    """
    h = _NEWTON_DIFF_STEP * contour.radius
    todo = [i for i in simple if estimates[i][1] != 0.0]
    if hasattr(nep, "prefetch"):
        nep.prefetch([estimates[i][0] + h for i in todo], jobs)

    def step(i: int) -> complex:
        z = estimates[i][0]
        U, s, W = linalg.svd(nep(z))
        x, y = W[:, -1], U[:, -1]
        slope = (y.conj() @ nep(z + h) @ x - s[-1]) / h
        return complex(z - s[-1] / slope)

    moves = [(i, z_new) for i, z_new in zip(todo, _map(step, todo, jobs))
             if abs(z_new - estimates[i][0]) <= max_move and contour.contains(z_new)]
    out = list(estimates)
    for (i, z_new), r_new in zip(moves, _residuals(nep, [z for _, z in moves], jobs)):
        if r_new < estimates[i][1]:
            out[i] = (z_new, r_new)
    return out
