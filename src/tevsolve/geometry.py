"""Smooth closed parametric boundary curves and their equispaced samplings.

Curves are 2*pi-periodic trigonometric maps t -> (x(t), y(t)) with analytic
first and second derivatives (no finite differencing).  The built-in shapes
are the unit-scale circle, the axis-aligned ellipse, and the kite
(0.75 cos t + 0.3 cos 2t, sin t); arbitrary trigonometric-polynomial curves
are accepted through :func:`make_curve` and are checked for regularity and
positive orientation on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GeometryError

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

    def _eval(self, t, derivative: int):
        t = np.asarray(t, dtype=float)
        x = np.zeros_like(t)
        y = np.zeros_like(t)
        for j, (cx, sx) in enumerate(zip(self.xc, self.xs)):
            x = x + _trig_term(cx, sx, j, t, derivative)
        for j, (cy, sy) in enumerate(zip(self.yc, self.ys)):
            y = y + _trig_term(cy, sy, j, t, derivative)
        return np.stack([x, y], axis=-1)

    def point(self, t):
        return self._eval(t, 0)

    def derivative(self, t):
        return self._eval(t, 1)

    def second_derivative(self, t):
        return self._eval(t, 2)


def _trig_term(c: float, s: float, j: int, t, derivative: int):
    if c == 0.0 and s == 0.0:
        return 0.0
    if derivative == 0:
        return c * np.cos(j * t) + s * np.sin(j * t)
    if derivative == 1:
        return j * (-c * np.sin(j * t) + s * np.cos(j * t))
    if derivative == 2:
        return -j * j * (c * np.cos(j * t) + s * np.sin(j * t))
    raise ValueError(f"unsupported derivative order {derivative}")


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

    kind "circle" (param r, default 1), "ellipse" (params a, b),
    "kite" (fixed shape), or "trig" (params xc, xs, yc, ys coefficient
    sequences).
    """
    zero = (0.0,)
    if kind == "circle":
        r = float(params.pop("r", 1.0))
        if r <= 0:
            raise ConfigError("circle radius must be positive")
        c = BoundaryCurve("circle", (0.0, r), zero * 2, zero * 2, (0.0, r))
    elif kind == "ellipse":
        a = float(params.pop("a", 1.0))
        b = float(params.pop("b", 1.0))
        if a <= 0 or b <= 0:
            raise ConfigError("ellipse semi-axes must be positive")
        c = BoundaryCurve("ellipse", (0.0, a), zero * 2, zero * 2, (0.0, b))
    elif kind == "kite":
        c = BoundaryCurve("kite", (0.0, 0.75, 0.3), zero * 3, zero * 3, (0.0, 1.0, 0.0))
    elif kind == "trig":
        try:
            coeffs = [tuple(float(v) for v in params.pop(key)) for key in ("xc", "xs", "yc", "ys")]
        except KeyError as exc:
            raise ConfigError(f"trig curve requires coefficient sequences xc, xs, yc, ys") from exc
        width = max(len(c) for c in coeffs)
        coeffs = [c + (0.0,) * (width - len(c)) for c in coeffs]
        c = BoundaryCurve("trig", *coeffs)
    else:
        raise ConfigError(f"unknown curve kind {kind!r}")
    if params:
        raise ConfigError(f"unknown {kind} parameters {sorted(params)}")
    return _validate(c)


def parse_shape(spec: str) -> BoundaryCurve:
    """Parse a CLI shape spec: ``circle:r=1``, ``ellipse:a=1,b=1.2``, ``kite``."""
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


@dataclass(frozen=True, eq=False)
class CurveSample:
    """Curve data at the N equispaced parameter nodes t_j = 2 pi j / N.

    Normals are outward unit vectors; curvature is the signed curvature,
    positive for a counterclockwise circle.  The sample is immutable and safe
    to share across threads; samples compare by identity.
    """

    curve: BoundaryCurve
    n: int
    t: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    speeds: np.ndarray
    normals: np.ndarray
    curvatures: np.ndarray

    @cached_property
    def chords(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only node distances |x_i - x_j| and normal projections
        nu_i . (x_i - x_j), computed once; raises GeometryError when two
        distinct nodes coincide."""
        d = self.points[:, None, :] - self.points[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1])
        if np.any(r[~np.eye(self.n, dtype=bool)] < 1.0e-12):
            raise GeometryError("coincident quadrature nodes; curve is degenerate")
        proj = np.einsum("ik,ijk->ij", self.normals, d)
        r.flags.writeable = proj.flags.writeable = False
        return r, proj


def sample(curve: BoundaryCurve, n: int) -> CurveSample:
    """Sample a curve at n equispaced parameter nodes (n even, >= 4)."""
    if n < 4 or n % 2:
        raise ConfigError(f"node count must be even and >= 4, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    p = curve.point(t)
    d1 = curve.derivative(t)
    d2 = curve.second_derivative(t)
    speed = np.hypot(d1[:, 0], d1[:, 1])
    if np.any(speed <= _MIN_SPEED):
        raise GeometryError("degenerate node speed; curve fails regularity at a node")
    tangents = d1 / speed[:, None]
    normals = np.stack([d1[:, 1], -d1[:, 0]], axis=-1) / speed[:, None]
    curv = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    return CurveSample(curve, n, t, p, tangents, speed, normals, curv)
