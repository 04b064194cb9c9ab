"""Special-function kernel against arbitrary-precision oracles (mpmath)."""

import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from tevsolve import special
from tevsolve.errors import RangeError, SingularityError
from tevsolve.geometry import make_curve, parse_shape, sample
from tevsolve.special import (
    bessel_j,
    bessel_j_prime,
    bessel_j_second,
    hankel1,
)
from tevsolve.testing import bessel_j_positive_root

mp.mp.dps = 30


def mp_jv(m, z):
    v = mp.besselj(m, mp.mpc(z))
    return complex(v)


class TestBesselJ:
    def test_series_anchor_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        # first positive root of J0, located by bisection on the mpmath series
        root = float(mp.besseljzero(0, 1))
        assert root == pytest.approx(2.404825557695773, abs=1e-14)
        assert abs(bessel_j(0, root)) <= 1e-12
        # J1(1) from the 30-digit series
        assert bessel_j(1, 1.0) == pytest.approx(float(mp.besselj(1, 1)), rel=1e-14)
        assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, rel=1e-12)

    def test_relative_accuracy_against_mpmath(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            m = int(rng.integers(0, 21))
            z = complex(rng.uniform(-50, 50), rng.uniform(-10, 10))
            if abs(z) < 1e-3:
                continue
            ours = complex(bessel_j(m, z))
            ref = mp_jv(m, z)
            assert abs(ours - ref) <= 1e-12 * max(abs(ref), 1e-280)

    def test_negative_order_reflection(self):
        z = 1.7 - 0.4j
        for m in (1, 2, 5):
            assert bessel_j(-m, z) == pytest.approx((-1) ** m * bessel_j(m, z), rel=1e-14)

    def test_recurrence_property(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            m = int(rng.integers(1, 21))
            z = rng.uniform(0.1, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            lhs = bessel_j(m - 1, z) + bessel_j(m + 1, z)
            rhs = 2 * m / z * bessel_j(m, z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-250)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = int(rng.integers(0, 15))
            z = complex(rng.uniform(-20, 20), rng.uniform(-5, 5))
            assert bessel_j(m, np.conj(z)) == pytest.approx(
                np.conj(bessel_j(m, z)), rel=1e-13, abs=1e-290
            )

    def test_real_input_stays_real(self):
        x = np.linspace(0.1, 40, 64)
        out = bessel_j(3, x)
        assert out.dtype == np.float64  # no imaginary part can exist at all

    def test_range_errors(self):
        with pytest.raises(RangeError):
            bessel_j(0, 2.0e4)
        with pytest.raises(RangeError):
            bessel_j(171, 1.0)
        with pytest.raises(RangeError):
            bessel_j(0, np.nan)
        with pytest.raises(RangeError):
            bessel_j(0.5, 1.0)
        for m in (np.nan, np.inf, -np.inf):
            with pytest.raises(RangeError):
                bessel_j(m, 1.0)


class TestBesselJPrime:
    def test_anchor_values(self):
        assert bessel_j_prime(0, 0.0) == 0.0
        assert bessel_j_prime(1, 0.0) == pytest.approx(0.5, abs=1e-15)
        # J0' = -J1, value from the mpmath series
        assert bessel_j_prime(0, 1.0) == pytest.approx(-0.4400505857449335, rel=1e-12)

    def test_halved_difference_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 15))
            z = complex(rng.uniform(0.3, 30), rng.uniform(-3, 3))
            expect = 0.5 * (bessel_j(m - 1, z) - bessel_j(m + 1, z))
            assert bessel_j_prime(m, z) == pytest.approx(expect, rel=1e-12)

    def test_against_central_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(0, 11))
            z = complex(rng.uniform(0.5, 30), rng.uniform(-2, 2))
            h = 1e-6 * max(1.0, abs(z))
            fd = (bessel_j(m, z + h) - bessel_j(m, z - h)) / (2 * h)
            assert abs(bessel_j_prime(m, z) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_second_derivative_matches_ode(self):
        # z^2 J'' + z J' + (z^2 - m^2) J = 0
        for m, z in ((0, 2.0 + 0.3j), (3, 5.5 - 1.0j)):
            resid = (
                z**2 * bessel_j_second(m, z)
                + z * bessel_j_prime(m, z)
                + (z**2 - m**2) * bessel_j(m, z)
            )
            assert abs(resid) <= 1e-12 * max(1.0, abs(z) ** 2)

    def test_overflow_raises_range_error_not_a_warning(self):
        # J_m(1 - 800j) ~ e^800 overflows; the reflection of m = -3 must not warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (bessel_j, bessel_j_prime, bessel_j_second):
                for m in (0, -3):
                    with pytest.raises(RangeError):
                        kernel(m, 1.0 - 800j)


class TestHankel1:
    def test_h0_at_one(self):
        # J0(1) and Y0(1) from mpmath series with the Euler-Mascheroni constant
        ref = complex(mp.besselj(0, 1)) + 1j * complex(mp.bessely(0, 1))
        assert ref == pytest.approx(0.7651976865579666 + 0.0882569642156769j, abs=1e-13)
        assert complex(hankel1(0, 1.0)) == pytest.approx(ref, rel=1e-11)

    def test_derivative_relation(self):
        # H0'(z) = -H1(z), checked by central differences at z = 2 + 0.5i
        z = 2.0 + 0.5j
        h = 1e-6
        fd = (hankel1(0, z + h) - hankel1(0, z - h)) / (2 * h)
        assert abs(fd + hankel1(1, z)) <= 1e-10 * abs(hankel1(1, z)) * 1e4 or abs(
            fd + hankel1(1, z)
        ) <= 1e-6

    def test_wronskian(self):
        import scipy.special as sp

        x = 3.0
        w = sp.jv(0, x) * sp.yvp(0, x) - sp.jvp(0, x) * sp.yv(0, x)
        assert w == pytest.approx(2.0 / (np.pi * x), abs=1e-12)

    def test_accuracy_range(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            r = np.exp(rng.uniform(np.log(1e-3), np.log(200.0)))
            th = rng.uniform(-1.2, 1.2)
            z = r * np.exp(1j * th)
            if z.real <= 0:
                continue
            for m in (0, 1):
                # J + iY cancels ~e^{2 im(z)}: give mpmath enough guard digits
                with mp.workdps(40 + int(abs(z.imag))):
                    ref = complex(mp.hankel1(m, mp.mpc(z)))
                assert abs(complex(hankel1(m, z)) - ref) <= 1e-11 * abs(ref)

    def test_j_plus_iy_split_near_real_axis(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            z = complex(np.exp(rng.uniform(np.log(1e-3), np.log(200.0))), rng.uniform(-0.2, 0.2))
            for m in (0, 1):
                ref = complex(mp.besselj(m, mp.mpc(z)) + 1j * mp.bessely(m, mp.mpc(z)))
                assert abs(complex(hankel1(m, z)) - ref) <= 1e-11 * abs(ref)

    def test_errors(self):
        with pytest.raises(SingularityError):
            hankel1(0, 1e-9)
        with pytest.raises(RangeError):
            hankel1(0, -1.0 + 0.5j)
        with pytest.raises(RangeError):
            hankel1(2, 1.0)

    def test_matches_scipy_hankel1(self):
        import scipy.special as sp

        rng = np.random.default_rng(7)
        r = np.exp(rng.uniform(np.log(1e-8), np.log(50.0), 4000))
        th = rng.uniform(-np.pi / 2, np.pi / 2, 4000)
        # the right half-plane, the real axis, and re z -> 0+ on both sides
        z = np.concatenate([r * np.exp(1j * th), r, 1e-300 + 1j * r, 1e-12 - 1j * r[:500]])
        z = z[z.real > 0]
        for m in (0, 1):
            want = sp.hankel1(m, z)
            assert np.all(np.abs(hankel1(m, z) - want) <= 2 * np.spacing(np.abs(want)))
            for x in (1e-8, 1.0, 3, 2.5 + 0.3j, 1e-300 + 7j, 40.0 - 2.0j):
                want = sp.hankel1(m, x)
                assert abs(hankel1(m, x) - want) <= 2 * np.spacing(abs(want))

    def test_errors_at_domain_edges(self):
        for z in (0.0, 1e-9j + 1e-300, np.array([1.0, 5e-9])):
            with pytest.raises(SingularityError):
                hankel1(1, z)
        for z in (3j, np.array([1.0, -1.0]), np.nan, 1.0 + np.inf * 1j, 2.0e4, 1.0 - 800j):
            for m in (0, 1):
                with pytest.raises(RangeError):
                    hankel1(m, z)
        with pytest.raises(RangeError):
            hankel1(0.5, 1.0)


def _symmetric(n, seed=11):
    # a + a.T is bitwise symmetric (IEEE addition commutes); re > 0 for hankel1
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 6.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    return a + a.T


def _classes(z):
    """The kernel table of |z|: on these inputs its classes are those of equal entries of z."""
    return special.kernel_table(np.abs(z))


# a curve with no mirror symmetry: its node distances are symmetric under the transpose only
ASYMMETRIC = make_curve("trig", xc=(0.1, 1.0, 0.2, 0.05), xs=(0.0, 0.1, 0.07, 0.0),
                        yc=(0.0, 0.15, 0.0, 0.03), ys=(0.05, 1.1, -0.1, 0.02))


class TestSymmetricFold:
    KERNELS = ((hankel1, sp.hankel1), (bessel_j, sp.jv))

    def test_bitwise_equal_to_scipy_on_every_shape(self):
        rng = np.random.default_rng(12)
        z = _symmetric(9)
        assert np.array_equal(z, z.T)
        inputs = (z, z.real, z + np.triu(np.full((9, 9), 1e-3)), rng.uniform(0.1, 5.0, (6, 6)),
                  z[:, :7], z[2], z[3, 4])
        for ours, scipy_kernel in self.KERNELS:
            for m in (0, 1):
                for x in inputs:
                    got, want = np.asarray(ours(m, x)), scipy_kernel(m, x)
                    assert got.shape == np.shape(x) and got.dtype == want.dtype
                    assert np.array_equal(got, want)

    def test_symmetric_input_evaluates_the_upper_triangle(self, amos_points):
        # a random symmetric matrix has one class per entry of its upper triangle
        points = amos_points
        z = _symmetric(12)
        table = _classes(z)
        for kernel, scipy_kernel in self.KERNELS:
            for m in (0, 1):
                points.clear()
                assert np.array_equal(kernel(m, z, table=table), scipy_kernel(m, z))
                assert points == [12 * 13 // 2]
                points.clear()
                kernel(m, z + np.triu(np.full((12, 12), 1e-3), 1),
                       table=_classes(z + np.triu(np.full((12, 12), 1e-3), 1)))
                assert points == [144]

    def test_without_orbits_every_point_is_evaluated(self, amos_points):
        points = amos_points
        z = _symmetric(12)
        for kernel, _ in self.KERNELS:
            for m in (0, 1):
                points.clear()
                kernel(m, z)
                assert points == [144]

    def test_orbits_must_fit_the_argument(self):
        table = _classes(_symmetric(12))
        for kernel, _ in self.KERNELS:
            for n in (10, 14):
                with pytest.raises((IndexError, ValueError)):
                    kernel(0, _symmetric(n), table=table)

    # each curve's classes are at most its mirror-group orbits (the group named
    # in each comment), as mirror-exact nodes make mirrored distances equal; fewer
    # where distances coincide otherwise, which rounding decides; the fit is
    # switched off, so that each kernel runs Amos on each class
    @pytest.mark.parametrize("curve, n, orbits", [
        (parse_shape("ellipse:a=1,b=1.2"), 240, 7321),  # transpose and both mirrors
        (parse_shape("kite"), 240, 14521),              # transpose and y -> -y
        (ASYMMETRIC, 240, 240 * 241 // 2),              # transpose only
        (parse_shape("ellipse:a=1,b=1.2"), 122, 1922),  # both mirrors, neither with a fixed node
        # transpose and x -> -x: a kite pointing up, (cos t, sin t + 0.3 cos 2t)
        (make_curve("trig", xc=(0, 1), xs=(0, 0), yc=(0, 0, 0.3), ys=(0, 1)), 240, 14521),
    ], ids=["ellipse-240", "kite-240", "trig-240", "ellipse-122", "x-mirror-240"])
    def test_curve_distances_evaluate_one_point_per_orbit(self, curve, n, orbits, amos_points,
                                                         monkeypatch):
        monkeypatch.setattr(special, "_fitted", lambda *args: None)
        s = sample(curve, n)
        table = s.nystrom[4]
        classes = len(table[0])
        assert classes <= orbits
        z = (2.7 - 0.15j) * s.nystrom[0]
        points = amos_points
        for ours, scipy_kernel in self.KERNELS:
            for m in (0, 1):
                points.clear()
                got = ours(m, z, table=table)
                assert points == [classes]
                assert np.array_equal(got, scipy_kernel(m, z))

    def test_errors_in_one_off_diagonal_pair(self):
        cases = (
            (-0.5 + 0.1j, (hankel1,), RangeError),         # re z <= 0
            (5e-9, (hankel1,), SingularityError),          # |z| < 1e-8
            (np.nan, (hankel1, bessel_j), RangeError),
            (np.inf + 1j, (hankel1, bessel_j), RangeError),
            (2.0e4, (hankel1, bessel_j), RangeError),      # |z| > 1e4
            (1.0 - 800j, (bessel_j,), RangeError),         # J overflows
        )
        table = _classes(_symmetric(6))
        for bad, kernels, error in cases:
            z = _symmetric(6)
            z[1, 4] = z[4, 1] = bad
            for kernel in kernels:
                for m in (0, 1):
                    for given in (table, None):
                        with pytest.raises(error):
                            kernel(m, z, table=given)


class TestPositiveRoots:
    def test_first_roots_match_mpmath(self):
        assert bessel_j_positive_root(0, 1) == pytest.approx(
            float(mp.besseljzero(0, 1)), abs=1e-13
        )
        assert bessel_j_positive_root(1, 1) == pytest.approx(
            float(mp.besseljzero(1, 1)), abs=1e-13
        )
        assert bessel_j_positive_root(0, 1) == pytest.approx(2.404825557695773, abs=1e-12)
        assert bessel_j_positive_root(1, 1) == pytest.approx(3.831705970207512, abs=1e-12)

    def test_residual_and_interlacing(self):
        for m in (0, 3, 10):
            for idx in (1, 5, 20):
                root = bessel_j_positive_root(m, idx)
                assert abs(bessel_j(m, root)) <= 1e-12
        assert bessel_j_positive_root(0, 1) < bessel_j_positive_root(0, 2)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            bessel_j_positive_root(11, 1)
        with pytest.raises(RangeError):
            bessel_j_positive_root(0, 21)
