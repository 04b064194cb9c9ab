"""Boundary curves: construction, shape parsing, sampling invariants."""

import mpmath as mp
import numpy as np
import pytest

from tevsolve.errors import ConfigError, GeometryError
from tevsolve.geometry import make_curve, parse_shape, sample


class TestMakeCurve:
    def test_circle_point_and_normal(self):
        s = sample(make_curve("circle", r=1.0), 16)
        assert s.points[0] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert s.normals[0] == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_kite_start_point(self):
        c = make_curve("kite")
        assert c.point(0.0) == pytest.approx([1.05, 0.0], abs=1e-15)

    def test_ellipse_top(self):
        c = make_curve("ellipse", a=1.0, b=1.2)
        p = c.point(np.pi / 2)
        assert p == pytest.approx([0.0, 1.2], abs=1e-15)
        s = sample(c, 16)
        assert s.normals[4] == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_closure(self):
        c = make_curve("kite")
        assert c.point(0.0) == pytest.approx(c.point(2 * np.pi), abs=1e-12)
        assert c.derivative(0.0) == pytest.approx(c.derivative(2 * np.pi), abs=1e-12)

    def test_irregular_curve_rejected(self):
        # cusp at t = 0: x'(0) = y'(0) = 0
        with pytest.raises(GeometryError) as exc:
            make_curve("trig", xc=(0, 1), xs=(0, 0), yc=(0, 0), ys=(0, 1, -0.5))
        assert "t =" in str(exc.value)

    def test_orientation_rejected(self):
        with pytest.raises(GeometryError):
            make_curve("trig", xc=(0, 1), xs=(0, 0), yc=(0, 0), ys=(0, -1))

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            make_curve("circle", r=-1.0)
        with pytest.raises(ConfigError):
            make_curve("hexagon")
        with pytest.raises(ConfigError):
            make_curve("kite", a=2.0)

    def test_parameters_must_be_finite(self):
        finite = {"xc": (0, 1), "xs": (0, 0), "yc": (0, 0)}
        for kind, params in (("circle", {"r": np.nan}), ("circle", {"r": np.inf}),
                             ("ellipse", {"a": 1.0, "b": np.nan}),
                             ("trig", {**finite, "ys": (0, np.nan)}),
                             ("trig", {**finite, "ys": (0, 1), "xc": 1.0})):
            with pytest.raises(ConfigError):
                make_curve(kind, **params)


class TestParseShape:
    def test_specs(self):
        assert parse_shape("circle:r=1").kind == "circle"
        assert parse_shape("ellipse:a=1,b=1.2").kind == "ellipse"
        assert parse_shape("kite").kind == "kite"

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            parse_shape("ellipse:a=1,b")
        with pytest.raises(ConfigError):
            parse_shape("ellipse:a=one")


class TestSample:
    def test_circle_four_points(self):
        s = sample(make_curve("circle", r=1.0), 4)
        want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(s.points, want, atol=1e-15)

    def test_even_count_required(self):
        with pytest.raises(ConfigError):
            sample(make_curve("circle"), 15)
        with pytest.raises(ConfigError):
            sample(make_curve("circle"), 2)

    def test_unit_normals_orthogonal_to_tangents(self):
        for spec in ("circle:r=1", "ellipse:a=1,b=1.2", "kite"):
            c = parse_shape(spec)
            s = sample(c, 64)
            assert np.max(np.abs(np.hypot(s.normals[:, 0], s.normals[:, 1]) - 1)) <= 1e-14
            dots = np.einsum("ij,ij->i", s.normals, c.derivative(s.t)) / s.speeds
            assert np.max(np.abs(dots)) <= 1e-14

    def test_mirror_exact_nodes(self):
        # node -i is node i under y -> -y, and node n/2 - i node i under x -> -x,
        # bitwise, for 4 | n and for n = 122, where l -> n/2 - l fixes no table
        # entry; every node within 1e-15 of the curve at the exact 2 pi i / n
        # (curve.point(s.t) itself is off by up to 1 ulp of t, 1e-15)
        for n, spec, x_mirror in ((240, "circle:r=1", True), (240, "ellipse:a=1,b=1.2", True),
                                  (240, "kite", False), (122, "ellipse:a=1,b=1.2", True),
                                  (122, "kite", False)):
            i = np.arange(n)
            c = parse_shape(spec)
            s = sample(c, n)
            assert np.array_equal(s.points[-i % n], s.points * (1, -1))
            assert np.array_equal(s.points[(n // 2 - i) % n], s.points * (-1, 1)) == x_mirror
            with mp.workdps(30):
                angles = [2 * mp.pi * node / n for node in range(n)]
                exact = [[float(sum(a * mp.cos(j * t) + b * mp.sin(j * t)
                                    for j, (a, b) in enumerate(zip(cos_row, sin_row))))
                          for cos_row, sin_row in ((c.xc, c.xs), (c.yc, c.ys))] for t in angles]
            assert np.max(np.abs(s.points - exact)) <= 1e-15
            assert np.max(np.abs(s.points - c.point(s.t))) <= 2e-15

    def test_circle_curvature(self):
        for r in (1.0, 2.5):
            s = sample(make_curve("circle", r=r), 32)
            assert np.allclose(s.curvatures, 1.0 / r, atol=1e-12)

    def test_ellipse_curvature_closed_form(self):
        # kappa(0) = a / b^2 for the axis-aligned ellipse
        s = sample(make_curve("ellipse", a=1.0, b=1.2), 64)
        assert s.curvatures[0] == pytest.approx(1.0 / 1.44, abs=1e-10)

    def test_derivative_matches_finite_differences(self):
        # the kite, and a trig curve with terms up to j = 5, where scaling the
        # coefficients by j is no longer exact
        trig = make_curve("trig", xc=(0.1, 1.0, 0.05, 0.0, 0.02, 0.01),
                          xs=(0.0, 0.0, 0.03, 0.02, 0.0, 0.01),
                          yc=(0.0, 0.0, 0.0, 0.03, 0.01, 0.0),
                          ys=(0.2, 1.1, 0.04, 0.0, 0.02, 0.01))
        h = 1e-6
        for c in (parse_shape("kite"), trig):
            t = sample(c, 32).t
            fd = (c.point(t + h) - c.point(t - h)) / (2 * h)
            assert np.max(np.abs(fd - c.derivative(t))) <= 1e-8
            fd2 = (c.derivative(t + h) - c.derivative(t - h)) / (2 * h)
            assert np.max(np.abs(fd2 - c.second_derivative(t))) <= 1e-8

    def test_signed_area_greens_theorem(self):
        # trapezoid rule is spectrally accurate on smooth closed curves
        c = make_curve("ellipse", a=1.0, b=1.2)
        s = sample(c, 256)
        d = c.derivative(s.t)
        area = np.mean(s.points[:, 0] * d[:, 1] - s.points[:, 1] * d[:, 0]) * np.pi
        assert area == pytest.approx(np.pi * 1.0 * 1.2, abs=1e-10)

    def test_perimeter_spectral_convergence(self):
        # the kite speed has enough high harmonics that 1e-12 agreement needs
        # N = 128; circle and ellipse converge by N = 64 already
        for spec, n0 in (("circle:r=1", 64), ("ellipse:a=1,b=1.2", 64), ("kite", 128)):
            c = parse_shape(spec)
            per = {}
            for n in (n0, 2 * n0):
                s = sample(c, n)
                per[n] = 2 * np.pi * np.mean(s.speeds)
            assert abs(per[n0] - per[2 * n0]) <= 1e-12
