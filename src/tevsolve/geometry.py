"""Smooth closed parametric boundary curves and their equispaced samplings.

Curves are 2*pi-periodic trigonometric maps t -> (x(t), y(t)).  Their
derivatives are analytic (no finite differencing), by one rule: d/dt takes
the coefficient pair (c, s) of cos jt, sin jt to (j s, -j c).  The built-in
shapes are the unit-scale circle, the axis-aligned ellipse, and the kite
(0.75 cos t + 0.3 cos 2t, sin t); arbitrary trigonometric-polynomial curves
are accepted through :func:`make_curve` and are checked for regularity and
positive orientation on construction.

A :class:`CurveSample` owns what the Nystrom assembly of :mod:`bie` needs
that does not depend on the wavenumber: the node distances, the log-split
tables, and the kernel table that :mod:`special` builds from the distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GeometryError
from .special import kernel_table

_PROBE_N = 1024
_MIN_SPEED = 1.0e-9


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed curve given by cosine/sine coefficient rows for x(t) and y(t).

    ``x(t) = sum_j xc[j] cos(j t) + xs[j] sin(j t)`` and likewise for y with
    (yc, ys).  Closure and smoothness are automatic for trigonometric
    polynomials; regularity and orientation are verified on a 1024-point probe.
    """

    kind: str
    xc: tuple = field(repr=False)
    xs: tuple = field(repr=False)
    yc: tuple = field(repr=False)
    ys: tuple = field(repr=False)

    def _eval(self, t, derivative: int, waves=None):
        """The derivative-th derivative at t, from waves(j) = (cos j t, sin j t)
        (by default np.cos and np.sin of j t)."""
        t = np.asarray(t, dtype=float)
        xy = []
        for cos_row, sin_row in ((self.xc, self.xs), (self.yc, self.ys)):
            v = np.zeros_like(t)
            for j, (c, s) in enumerate(zip(cos_row, sin_row)):
                for _ in range(derivative):
                    c, s = j * s, -j * c
                if c or s:
                    cos_j, sin_j = waves(j) if waves else (np.cos(j * t), np.sin(j * t))
                    v = v + (c * cos_j + s * sin_j)
            xy.append(v)
        return np.stack(xy, axis=-1)

    def point(self, t):
        return self._eval(t, 0)

    def derivative(self, t):
        return self._eval(t, 1)

    def second_derivative(self, t):
        return self._eval(t, 2)


def _validate(curve: BoundaryCurve) -> BoundaryCurve:
    t = 2.0 * np.pi * np.arange(_PROBE_N) / _PROBE_N
    d = curve.derivative(t)
    speed = np.hypot(d[:, 0], d[:, 1])
    bad = np.nonzero(speed <= _MIN_SPEED)[0]
    if bad.size:
        raise GeometryError(
            f"curve {curve.kind!r} is irregular: |x'(t)| = {speed[bad[0]]:.3e} at t = {t[bad[0]]:.6f}"
        )
    _, area = length_and_area(curve)
    if area <= 0:
        raise GeometryError(
            f"curve {curve.kind!r} is not positively oriented (signed area {area:.3e})"
        )
    return curve


def length_and_area(curve: BoundaryCurve) -> tuple[float, float]:
    """Perimeter and signed enclosed area by the trapezoid rule on the probe
    nodes (spectrally accurate on closed curves)."""
    t = 2.0 * np.pi * np.arange(_PROBE_N) / _PROBE_N
    p, d = curve.point(t), curve.derivative(t)
    length = 2.0 * np.pi * float(np.mean(np.hypot(d[:, 0], d[:, 1])))
    area = np.pi * float(np.mean(p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]))
    return length, area


def make_curve(kind: str, **params) -> BoundaryCurve:
    """Construct a boundary curve.

    kind "circle" (radius r, default 1), "ellipse" (semi-axes a, b), "kite"
    (fixed shape), or "trig" (finite coefficient sequences xc, xs, yc, ys).
    Sizes must be finite and positive; a degenerate curve raises GeometryError.
    """
    zero = (0.0,)
    if kind == "circle":
        r = float(params.pop("r", 1.0))
        if not 0 < r < np.inf:
            raise ConfigError(f"circle radius r must be finite and positive, got {r}")
        c = BoundaryCurve("circle", (0.0, r), zero * 2, zero * 2, (0.0, r))
    elif kind == "ellipse":
        a = float(params.pop("a", 1.0))
        b = float(params.pop("b", 1.0))
        if not (0 < a < np.inf and 0 < b < np.inf):
            raise ConfigError(f"ellipse semi-axes a, b must be finite and positive, got {a}, {b}")
        c = BoundaryCurve("ellipse", (0.0, a), zero * 2, zero * 2, (0.0, b))
    elif kind == "kite":
        c = BoundaryCurve("kite", (0.0, 0.75, 0.3), zero * 3, zero * 3, (0.0, 1.0, 0.0))
    elif kind == "trig":
        try:
            coeffs = [tuple(float(v) for v in params.pop(key)) for key in ("xc", "xs", "yc", "ys")]
        except (KeyError, TypeError) as exc:
            raise ConfigError("trig curve requires coefficient sequences xc, xs, yc, ys") from exc
        width = max(len(c) for c in coeffs)
        coeffs = [c + (0.0,) * (width - len(c)) for c in coeffs]
        if not np.isfinite(coeffs).all():
            raise ConfigError("trig curve coefficients must be finite")
        c = BoundaryCurve("trig", *coeffs)
    else:
        raise ConfigError(f"unknown curve kind {kind!r}")
    if params:
        raise ConfigError(f"unknown {kind} parameters {sorted(params)}")
    return _validate(c)


def parse_shape(spec: str) -> BoundaryCurve:
    """Parse a CLI shape spec: ``circle:r=1``, ``ellipse:a=1,b=1.2``, ``kite`` (no ``trig``)."""
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"malformed shape parameter {item!r} in {spec!r}")
            try:
                params[key.strip()] = float(value)
            except ValueError as exc:
                raise ConfigError(f"non-numeric shape parameter {item!r} in {spec!r}") from exc
    return make_curve(kind, **params)


def _log_weights(n: int) -> np.ndarray:
    """R - h L (n x n).  R_l integrates f(tau) ln(4 sin^2((t_i - tau)/2)) exactly
    for trigonometric polynomials f of degree < n/2.  The table is v_((i - j) mod n),
    with v_l for l <= n/2 and v_(n - l) = v_l, so that the mirror maps i -> -i and
    i -> n/2 - i leave it bitwise unchanged."""
    l = np.arange(n // 2 + 1)
    m = np.arange(1, n // 2)
    v = -(4.0 * np.pi / n) * (np.cos(2.0 * np.pi * np.outer(l, m) / n) / m).sum(axis=1)
    v -= (4.0 * np.pi / n**2) * np.cos(np.pi * l)
    v -= (2.0 * np.pi / n) * np.log(4.0 * np.sin(np.pi * l / n) ** 2 + (l == 0))
    i = np.arange(n)
    return np.concatenate([v, v[-2:0:-1]])[(i[:, None] - i[None, :]) % n]


@dataclass(frozen=True, eq=False)
class CurveSample:
    """Curve data at the N equispaced parameter nodes t_j = 2 pi j / N.

    Normals are outward unit vectors; curvature is the signed curvature,
    positive for a counterclockwise circle.  The nodes are mirror-exact: those
    of a mirror-symmetric curve are bitwise mirrored, as :func:`sample` states,
    so mirrored distances are equal and share one class of the kernel table.
    ``nystrom`` is read-only and built once on first use (before threads share
    the sample, or two may build it).
    The sample is immutable and thread-safe; samples compare by identity.
    """

    n: int
    t: np.ndarray
    points: np.ndarray
    speeds: np.ndarray
    normals: np.ndarray
    curvatures: np.ndarray

    @cached_property
    def nystrom(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
        """The k-independent tables of the log-split Nystrom rule (see :mod:`bie`):
        r + I for the node distances r_ij = |x_i - x_j|, A_S = -(R - h L) sp_j / (4 pi),
        A_K = (R - h L) g / (4 pi), B_K = -i (h/4) g and ``special.kernel_table(r + I)``,
        with h = 2 pi/N, the log weights R_|i-j|, the log factor
        L_ij = ln(4 sin^2((t_i - t_j)/2)) and g_ij = nu_i . (x_i - x_j) / r_ij * sp_j.
        Raises GeometryError when two distinct nodes coincide."""
        d = self.points[:, None, :] - self.points[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1])
        if np.any(r[~np.eye(self.n, dtype=bool)] < 1.0e-12):
            raise GeometryError("coincident quadrature nodes; curve is degenerate")
        r += np.eye(self.n)
        g = np.einsum("ik,ijk->ij", self.normals, d) / r * self.speeds
        split = _log_weights(self.n) / (4.0 * np.pi)
        tables = (r, -split * self.speeds, split * g, (-0.25j * 2.0 * np.pi / self.n) * g)
        for table in tables:
            table.flags.writeable = False
        return *tables, kernel_table(r)


def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C_l = cos(2 pi l/n) and S_l = sin(2 pi l/n), l = 0..n-1 (n even), built
    from the first quarter-wave l <= n/4 and its reflection C_{n/2-l} = -C_l,
    S_{n/2-l} = S_l, so that the table keeps the mirror symmetries bitwise: C
    is even and S odd under l -> n - l, and C odd and S even under
    l -> n/2 - l.  When 4 | n that map fixes l = n/4, where C is 0 exactly."""
    x = 2.0 * np.pi * np.arange(n // 4 + 1) / n
    s = np.sin(x)
    if n % 4:
        c, tail = np.cos(x), slice(None, None, -1)
    else:
        c, tail = s[::-1], slice(-2, None, -1)  # cos x = sin(pi/2 - x)
    c, s = np.concatenate([c, -c[tail]]), np.concatenate([s, s[tail]])
    return np.concatenate([c, c[-2:0:-1]]), np.concatenate([s, -s[-2:0:-1]])


def sample(curve: BoundaryCurve, n: int) -> CurveSample:
    """Sample a curve at n equispaced parameter nodes (n even, >= 4).

    cos(j t_i) and sin(j t_i) are read from one table at (j i) mod n, so a
    curve symmetric under y -> -y gives nodes that are so bitwise (node -i is
    node i mirrored), and one symmetric under x -> -x does too (node n/2 - i).
    """
    if n < 4 or n % 2:
        raise ConfigError(f"node count must be even and >= 4, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    cos, sin = _unit_circle(n)

    def waves(j):
        l = j * np.arange(n) % n
        return cos[l], sin[l]

    p, d1, d2 = (curve._eval(t, d, waves) for d in range(3))
    speed = np.hypot(d1[:, 0], d1[:, 1])
    if np.any(speed <= _MIN_SPEED):
        raise GeometryError("degenerate node speed; curve fails regularity at a node")
    normals = np.stack([d1[:, 1], -d1[:, 0]], axis=-1) / speed[:, None]
    curv = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    return CurveSample(n, t, p, speed, normals, curv)
