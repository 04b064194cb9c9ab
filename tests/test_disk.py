"""Unit-disk determinant path: determinant values, real/complex roots, grids,
and the circle operator symbol."""

import math
import warnings

import numpy as np
import pytest

from tevsolve import disk, special
from tevsolve.disk import (
    MAX_MODE,
    complex_roots,
    determinant_grid,
    disk_determinant,
    disk_determinant_prime,
    real_roots,
    real_roots_many,
)
from tevsolve.cli import main
from tevsolve.errors import ConfigError, NumericalFailure, PoleError, RangeError
from tevsolve.materials import MaterialParams
from tevsolve.special import bessel_j
from tevsolve.studies import lambda_at
from tevsolve.testing import (
    bessel_j_positive_root,
    circle_mode_symbol,
    disk_root_mp,
    disk_zero_count,
)

EX34 = MaterialParams(n=4.0, eta=-0.01, lam=2.0)
# the materials of the complex-search checks: regime B, EX34, regime A, the
# (n, eta) of the lambda -> 1+ study, and a large n
SEARCH_MATERIALS = [MaterialParams(4.0, 1.0, 0.5), EX34, MaterialParams(0.25, -3.0, 2.0),
                    MaterialParams(1.0 / 3.0, -1.0, 1.5), MaterialParams(9.0, 0.5, 1.0)]

# the ten mode-0 eigenvalues of the (n=4, eta=-1/100, lam=2) disk in
# [0, 10] x [-1, 1]i, as published to six decimals
EX34_ROOTS = [
    0.053410,
    2.203160 - 0.290468j,
    2.203160 + 0.290468j,
    3.456704,
    5.338551 - 0.305549j,
    5.338551 + 0.305549j,
    6.606526,
    8.477827 - 0.309699j,
    8.477827 + 0.309699j,
    9.750981,
]


class TestDeterminant:
    def test_value_at_zero_is_minus_eta(self):
        for eta in (-0.01, 1.0, -3.0):
            p = MaterialParams(4.0, eta, 2.0)
            assert disk_determinant(0, 0.0, p) == pytest.approx(-eta, abs=1e-15)

    def test_higher_modes_vanish_at_zero(self):
        # D_m(0) = m (lam - 1) - eta: zero exactly where eta = m (lam - 1)
        for m in (1, 2, 5):
            want = m * (EX34.lam - 1) - EX34.eta
            assert disk_determinant(m, 0.0, EX34) == pytest.approx(want, rel=1e-15)
        for m, p in ((1, MaterialParams(4.0, 1.0, 2.0)), (4, MaterialParams(9.0, 2.0, 1.5))):
            assert disk_determinant(m, 0.0, p) == 0.0

    def test_published_roots_are_roots(self):
        assert abs(disk_determinant(0, 3.456704, EX34)) <= 1e-5
        assert abs(disk_determinant(4, 2.151602, EX34)) <= 1e-5

    def test_list_argument_equals_array(self):
        for k in ([0.30, 0.31], [2.2 + 0.3j, 5.3]):
            for p in (EX34, SEARCH_MATERIALS):
                want = disk_determinant(0, np.array(k), p)
                assert np.array_equal(disk_determinant(0, k, p), want)
        assert disk_determinant(0, [0.30, 0.31], EX34)[0] == disk_determinant(0, 0.30, EX34)

    def test_real_k_real_value(self):
        ks = np.linspace(0.1, 9.7, 100)
        vals = disk_determinant(3, ks, EX34)
        assert vals.dtype == np.float64

    def test_analytic_derivative_vs_finite_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(0, 6))
            k = complex(rng.uniform(0.5, 9.0), rng.uniform(-0.5, 0.5))
            h = 1e-6 * max(1.0, abs(k))
            fd = (disk_determinant(m, k + h, EX34) - disk_determinant(m, k - h, EX34)) / (2 * h)
            an = disk_determinant_prime(m, k, EX34)
            assert abs(an - fd) <= 1e-5 * max(1.0, abs(fd))


def determinant_prime_reference(m, k, p, radius=0.5, nodes=64):
    """d/dk of D_m by Cauchy's integral formula on the circle |w - k| = radius,
    from D_m's values alone: the trapezoidal rule converges geometrically on the
    circle, since D_m is entire."""
    w = radius * np.exp(2j * np.pi * (np.arange(nodes) + 0.5) / nodes)
    return np.mean(disk_determinant(m, np.add.outer(k, w), p) / w, axis=-1)


def determinant_term_scale(m, k, p):
    """The sum of the magnitudes of D_m's three terms at k, from one-order tables:
    D_m = (m (lam - 1) - eta) F F_s + c k^2 F_s F1 - lam n c k^2 F F1_s."""
    f, f1, _ = disk._f_rows((m,), np.asarray(k))
    f_s, f1_s, _ = disk._f_rows((m,), k * p.sqrt_n)
    ck2 = k * k / (2 * m + 2)
    return (np.abs((m * (p.lam - 1) - p.eta) * f * f_s) + np.abs(ck2 * f_s * f1)
            + np.abs(p.lam * p.n * ck2 * f * f1_s))


class TestDeterminantPrime:
    def test_matches_cauchy_integral_reference(self):
        rng = np.random.default_rng(3)
        k = rng.uniform(0.01, 10.0, 400) + 1j * rng.uniform(-1.0, 1.0, 400)
        for p in SEARCH_MATERIALS:
            for m in (0, 1, 2, 5, 8, 20, 40, 60, MAX_MODE):
                want = determinant_prime_reference(m, k, p)
                got = disk_determinant_prime(m, k, p)
                # at m = 169, n = 9 and k s near 20, D_m' cancels among its
                # terms and keeps 2.1e-10 of its value
                tol = 1e-10 if m <= 60 else 1e-9
                assert np.all(np.abs(got - want) <= tol * np.abs(want)), (m, p)

    def test_zero_at_origin_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in SEARCH_MATERIALS:
                for m in (0, 1, 5, 60, MAX_MODE):
                    assert disk_determinant_prime(m, 0.0, p) == 0.0
                    for k in (np.zeros(3), np.array([0.0, 0.5j, 2.0])):
                        got = disk_determinant_prime(m, k, p)
                        assert np.all(got[k == 0] == 0.0)  # the reference has rounding there
                        want = determinant_prime_reference(m, k[k != 0], p)
                        assert np.allclose(got[k != 0], want, rtol=1e-10, atol=0.0)


def scaled_root_mp(p, m, k, width=1e-9):
    """The root of det_m / [(k/2)^m (k sqrt(n)/2)^m] in [k - width, k + width],
    bracketed, with mpmath's Bessel functions at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s, eta, lam = mp.sqrt(p.n), mp.mpf(p.eta), mp.mpf(p.lam)

        def scaled(k):
            j_w, j_v = mp.besselj(m, k * s), mp.besselj(m, k)
            dj_w, dj_v = mp.besselj(m, k * s, 1), mp.besselj(m, k, 1)
            det = -j_w * (k * dj_v + eta * j_v) + lam * dj_w * k * s * j_v
            return det / ((k / 2) ** m * (k * s / 2) ** m)

        k = mp.mpf(k)
        return float(mp.findroot(scaled, (k - width, k + width), solver="anderson"))


class TestRealRoots:
    def test_example_mode0_real_subset(self):
        got = [e.k.real for e in real_roots(EX34, m_max=0, k_range=(0.01, 10.0))]
        assert got == pytest.approx([0.053410, 3.456704, 6.606526, 9.750981], abs=1e-5)

    def test_limit_case_one_parameter(self):
        # lam = 1, eta = 1, n = 4: first three and their modes
        p = MaterialParams(4.0, 1.0, 1.0)
        eigs = real_roots(p, m_max=4, k_range=(0.5, 3.5))
        assert [round(e.k.real, 4) for e in eigs[:3]] == [2.7741, 3.2908, 3.3122]
        assert [e.mode_m for e in eigs[:3]] == [1, 0, 2]
        assert [e.multiplicity for e in eigs[:3]] == [2, 1, 2]

    def test_limit_case_above(self):
        p = MaterialParams(1.0 / 3.0, -1.0, 1.0)
        eigs = real_roots(p, m_max=4, k_range=(6.0, 8.5))
        assert [round(e.k.real, 4) for e in eigs[:3]] == [6.9884, 7.0107, 7.9523]
        assert [e.mode_m for e in eigs[:3]] == [0, 2, 1]

    def test_residuals_below_tolerance(self):
        for e in real_roots(EX34, m_max=6, k_range=(0.01, 5.0), tol=1e-10):
            assert e.residual <= 1e-8

    def test_root_count_stable_under_scan_refinement(self):
        p = MaterialParams(4.0, 1.0, 0.75)
        # the scan step is tol * 1e6: 1e-3, then 5e-4
        coarse = real_roots(p, m_max=5, k_range=(0.5, 6.0), tol=1e-9)
        fine = real_roots(p, m_max=5, k_range=(0.5, 6.0), tol=5e-10)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.k - b.k) <= 1e-9 and a.mode_m == b.mode_m

    def test_underflow_is_not_a_root(self):
        # det_m underflows to 0 near k = 0 for m >= 38: only mode 0's root is real
        eigs = real_roots(EX34, m_max=60, k_range=(0.001, 0.5))
        assert [(round(e.k.real, 5), e.mode_m) for e in eigs] == [(0.05341, 0)]

    def test_exact_zero_at_a_scan_point_is_a_root(self, monkeypatch):
        # h = 1e-2 on (1, 2); a linear det_0 vanishing exactly at the 51st point
        k0 = np.arange(1.0, 2.01, 0.01)[50]

        def linear(m, k, p):  # shaped as disk_determinant shapes orders and points
            vals = np.asarray(k) - k0
            if not isinstance(p, MaterialParams):
                vals = np.array([vals] * len(p))
            return vals if np.ndim(m) == 0 else np.array([vals] * len(m))

        monkeypatch.setattr(disk, "disk_determinant", linear)
        eigs = real_roots(EX34, m_max=0, k_range=(1.0, 2.0), tol=1e-8)
        assert [(e.k, e.residual) for e in eigs] == [(k0, 0.0)]

    def test_localised_mode_roots_match_mpmath(self):
        # m ~ eta / (lam - 1) = 60: |det_m| < 1e-190 about these roots, so a
        # bisection testing fa * fc < 0 sees 0 and walks to the bracket's end
        p = MaterialParams(4.0, 1.0, 1.0 + 1.02 / 60)
        eigs = [e for e in real_roots(p, 60, (0.2, 3.0)) if e.mode_m >= 59]
        assert [e.mode_m for e in eigs] == [59, 60]
        for e in eigs:
            m, k = disk_root_mp(p, e.k.real, 60)
            assert m == e.mode_m and abs(e.k.real - k) <= 1e-9

    def test_residual_certifies_localised_root(self):
        # |D_59| is 1.7e-8 at 1e-6 from the mode-59 root; |det_59| is 2.3e-245
        # at it and 2.0e-241 at 1e-6 away, which certifies nothing
        p = MaterialParams(4.0, 1.0, 1.0 + 1.02 / 60)
        (e,) = [e for e in real_roots(p, 60, (0.2, 3.0)) if e.mode_m == 59]
        assert e.k.real == pytest.approx(0.34254, abs=1e-5)
        assert e.residual <= 1e-12
        assert abs(disk_determinant(59, e.k.real + 1e-6, p)) >= 1e-9

    def test_localised_modes_beyond_60_match_mpmath(self):
        # (lam - 1) m ~ eta: boundary-localised modes fill k in (2, 3), the
        # lambda -> 1+ windows at p = 6 and 7 (lam = 1 + 2^-p)
        for p, m_max, modes in ((6, 80, range(70, 76)), (7, 160, range(134, 141))):
            material = MaterialParams(4.0, 1.0, 1.0 + 2.0 ** -p)
            eigs = real_roots(material, m_max, (2.0, 3.0), tol=1e-12)
            assert sorted(e.mode_m for e in eigs) == [1, *modes]
            for e in eigs:
                assert abs(e.k.real - scaled_root_mp(material, e.mode_m, e.k.real)) <= 1e-12

    def test_underflowing_determinant_raises_instead_of_dropping_roots(self):
        # D_169 of (1, 1, 2) underflows to 0.0 at k = 2000 (D_m decays like
        # k^-2m for k >> m): a scan row of exact zeros has no sign change, and
        # the other modes' 768 roots came back as if the row had none
        p = MaterialParams(1.0, 1.0, 2.0)
        assert disk_determinant(169, 2000.0, p) == 0.0
        with pytest.raises(RangeError, match=r"D_\d+ underflows to 0 at k = 199\d"):
            real_roots_many([p], m_max=169, k_range=(1995.0, 2005.0), tol=1e-8)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            real_roots(EX34, k_range=(0.0, 1.0))
        with pytest.raises(ConfigError):
            real_roots(EX34, k_range=(2.0, 1.0))
        with pytest.raises(ConfigError):
            real_roots(EX34, k_range=(0.1, 1.0), tol=1e-13)


class TestSharedScan:
    """Points that share n: one Bessel evaluation per mode, unchanged roots."""

    def test_many_equals_one_point_scans(self):
        # the two lambda -> 1 studies of the disk-lambda benchmark: 22 points
        for base, side, k_range in ((MaterialParams(4.0, 1.0, 1.0), "below", (2.0, 4.0)),
                                    (MaterialParams(1.0 / 3.0, -1.0, 1.0), "above", (6.0, 8.5))):
            lams = [1.0] + [lambda_at(side, p) for p in range(1, 11)]
            points = [base.replace(lam=lam) for lam in lams]
            many = real_roots_many(points, 6, k_range)
            assert many == [real_roots(p, 6, k_range) for p in points]
            assert all(len(roots) >= 3 for roots in many)

    def test_rows_equal_one_point_values(self):
        points = [MaterialParams(4.0, eta, lam) for eta, lam in ((1.0, 0.5), (-0.01, 2.0),
                                                                 (3.0, 1.0))]
        re, im = np.meshgrid(np.linspace(0.1, 9.0, 31), np.linspace(-1.0, 1.0, 17))
        for k in (np.linspace(0.01, 10.0, 1001), re + 1j * im, 2.5):
            for m in (0, 3):
                rows = disk_determinant(m, k, points)
                assert rows.shape == (len(points),) + np.shape(k)
                for row, p in zip(rows, points):
                    assert np.array_equal(row, disk_determinant(m, k, p))

    def test_mixed_n_rows_equal_one_point_values(self, monkeypatch):
        points = [EX34, MaterialParams(3.0, -0.01, 2.0), MaterialParams(4.0, 1.0, 0.5),
                  MaterialParams(0.25, -3.0, 2.0)]
        calls = {"bessel_j": 0, "bessel_j_prime": 0}

        def counted(name):
            original = getattr(disk, name)

            def call(m, z):
                calls[name] += 1
                return original(m, z)
            return call

        for k in (np.linspace(0.01, 10.0, 1001), 2.5 + 0.3j):
            singles = [disk_determinant(2, k, p) for p in points]
            with monkeypatch.context() as patch:
                for name in calls:
                    patch.setattr(disk, name, counted(name))
                rows = disk_determinant(2, k, points)
            assert rows.shape == (len(points),) + np.shape(k)
            assert all(np.array_equal(row, one) for row, one in zip(rows, singles))
        # per call: once at k, once at k sqrt(n) for each of the 3 distinct n
        assert calls == {"bessel_j": 2 * 4, "bessel_j_prime": 2 * 4}

    def test_order_rows_equal_one_order_values(self):
        # the multi-order table comes from the downward recurrence, the one-order
        # one from scipy: equal within 1e-12 of the sum of |D_m|'s terms
        points = [EX34, MaterialParams(3.0, 1.0, 0.5), MaterialParams(4.0, 1.0, 0.5)]
        grid = np.linspace(0.01, 10.0, 1001)
        for k in (grid, (1.0 + 0.3j) * grid, 2.5 + 0.3j):
            for m_max in (0, 1, 8, 60, MAX_MODE):
                rows = disk_determinant(range(m_max + 1), k, points)
                assert rows.shape == (m_max + 1, len(points)) + np.shape(k)
                for m, row in enumerate(rows):
                    for got, p in zip(row, points):
                        scale = determinant_term_scale(m, k, p)
                        assert np.all(np.abs(got - disk_determinant(m, k, p)) <= 1e-12 * scale)
        # one point: the point axis goes
        rows = disk_determinant([2, 3], grid, EX34)
        assert all(np.all(np.abs(row - disk_determinant(m, grid, EX34))
                          <= 1e-12 * determinant_term_scale(m, grid, EX34))
                   for m, row in zip((2, 3), rows))

    def test_one_bessel_call_per_order_and_argument(self, monkeypatch):
        points = [EX34, MaterialParams(3.0, -0.01, 2.0), MaterialParams(4.0, 1.0, 0.5)]
        calls = {"bessel_j": [], "bessel_j_prime": [], "bessel_j_second": []}

        def counted(name):
            original = getattr(special, name)

            def call(m, z):
                calls[name].append((m, z))
                return original(m, z)
            return call

        for name in calls:  # disk imports no bessel_j_second: a call would land here
            monkeypatch.setattr(disk, name, counted(name), raising=False)
        disk_determinant(range(9), np.linspace(0.01, 10.0, 1001), points)
        # at k and at k sqrt(n) for the 2 distinct n, the top order m_max + 1
        # only: the recurrence gives the orders below it
        for name in ("bessel_j", "bessel_j_prime"):
            assert [m for m, _ in calls[name]] == [9] * 3
        # D_m': J_{m+1} and J'_{m+1} once each at k and at k sqrt(n), and no J''
        for name in calls:
            calls[name].clear()
        k = np.linspace(0.01, 10.0, 101) + 0.2j
        disk_determinant_prime(5, k, EX34)
        for name in ("bessel_j", "bessel_j_prime"):
            assert [m for m, _ in calls[name]] == [6, 6]
            assert sorted(tuple(z[:2]) for _, z in calls[name]) == sorted(
                (tuple(k[:2]), tuple(k[:2] * EX34.sqrt_n)))
        assert calls["bessel_j_second"] == []

    def test_table_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # F_o = J_o o!/(z/2)^o against mpmath's 0F1(; o+1; -z^2/4) (DLMF 10.16.9),
        # within 1e-12 of max(|J_o|, |J_{o+1}|) o!/|z/2|^o.  Tops 61 and 170: below
        # |J_top| = 1e-280 (scipy flushes J below about 1e-289, J_61 at 6.64e-4)
        # the top two rows come from their power series, elsewhere from scipy.
        small = np.array([0.0, 1e-4, 3.2e-4, 5.47e-4, 6.64e-4, 1e-3])
        grids = (np.linspace(0.0, 25.0, 101)[1:], (1.0 + 0.3j) * np.linspace(0.0, 10.0, 51)[1:],
                 small, (1.0 + 0.3j) * small)
        for top, want_series in ((61, 12), (MAX_MODE + 1, 36)):
            series = 0
            for z in grids:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows, above, _ = disk._f_rows(range(top), z)
                f = np.concatenate([rows, above[-1:]])  # F_0 .. F_top
                series += np.sum(np.abs(bessel_j(top, z)) < 1e-280)
                for i, x in enumerate(z.tolist()):
                    x = mpmath.mpc(x) if isinstance(x, complex) else mpmath.mpf(x)
                    with mpmath.workdps(40):
                        want = [complex(mpmath.hyp0f1(m + 1, -x * x / 4)) for m in range(top + 2)]
                    for m in range(top + 1):
                        amplitude = max(abs(want[m]), abs(x) * abs(want[m + 1]) / (2 * m + 2))
                        assert abs(f[m, i] - want[m]) <= 1e-12 * amplitude, (top, m, x)
            # the series serve z = 0 and 1e-4 .. 1e-3 (and more at top = 170),
            # real and complex
            assert series == want_series

    def test_table_overflow_raises_range_error(self, monkeypatch):
        # scipy raises before any real table overflows: force one through J'_T
        monkeypatch.setattr(disk, "bessel_j_prime", lambda m, z: np.full(np.shape(z), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="F_0..F_9"):
                disk._f_rows(range(9), np.array([0.5, 2.0]))

    def test_determinant_at_origin_without_warning(self):
        # D_m(0) = m (lam - 1) - eta, from the series F_o(0) = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = disk_determinant(range(9), [0.0, 1.0], EX34)
            f, f1, _ = disk._f_rows(range(9), 0.0)
        assert rows[0, 0] == -EX34.eta
        assert rows[1:, 0] == pytest.approx(np.arange(1, 9) * (EX34.lam - 1) - EX34.eta, rel=1e-15)
        assert np.array_equal(f, np.ones(9)) and np.array_equal(f1, np.ones(9))

    def test_n_sweep_roots_do_not_depend_on_jobs(self):
        # the two n sweeps of the disk-n-sweep benchmark: 9 points, 9 distinct n
        for base, ns, k_range in ((MaterialParams(0.25, -3.0, 2.0), (1 / 6, 1 / 5, 1 / 4, 1 / 3),
                                   (3.0, 8.0)),
                                  (MaterialParams(4.0, 1.0, 0.5), (3.0, 4.0, 5.0, 6.0, 7.0),
                                   (1.0, 5.0))):
            points = [base.replace(n=n) for n in ns]
            serial = real_roots_many(points, 8, k_range, jobs=1)
            assert real_roots_many(points, 8, k_range, jobs=2) == serial
            assert serial == [real_roots(p, 8, k_range, jobs=2) for p in points]
            assert all(len(roots) >= 3 for roots in serial)

    def test_no_points(self):
        assert real_roots_many([], 2, (1.0, 2.0)) == []

    def test_m_max_above_bessel_cap_rejected_before_any_work(self, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("Bessel work before the m_max check")

        monkeypatch.setattr(disk, "bessel_j", no_bessel)
        monkeypatch.setattr(disk, "bessel_j_prime", no_bessel)
        with pytest.raises(ConfigError, match=f"0..{MAX_MODE}"):
            real_roots(EX34, m_max=MAX_MODE + 1, k_range=(1.0, 10.0))
        with pytest.raises(ConfigError):
            real_roots(EX34, m_max=-1, k_range=(1.0, 10.0))


class TestComplexRoots:
    def test_example_full_set(self):
        got = complex_roots(0, EX34, (0.0, 10.0, -1.0, 1.0))
        assert len(got) == 10
        for e, want in zip(got, EX34_ROOTS):
            assert abs(e.k - want) <= 5e-6

    def test_conjugate_closure(self):
        got = complex_roots(0, EX34, (0.0, 10.0, -1.0, 1.0))
        ks = [e.k for e in got]
        for k in ks:
            assert any(abs(np.conj(k) - q) <= 1e-8 for q in ks)

    def test_real_line_consistency(self):
        # parameters whose spectrum in the window is purely real
        p = MaterialParams(4.0, 1.0, 1.0)
        real_set = [e.k.real for e in real_roots(p, m_max=0, k_range=(0.5, 4.0))]
        complex_set = complex_roots(0, p, (0.5, 4.0, -0.3, 0.3))
        assert [e.k for e in complex_set] == pytest.approx(real_set, abs=1e-8)

    def test_pair_next_to_region_edge(self):
        # 0.0035 from the edges im k = -1 and +1
        p = SEARCH_MATERIALS[0]
        got = [e.k for e in complex_roots(1, p, (0.0, 10.0, -1.0, 1.0))]
        for want in (2.963366 - 0.996507j, 2.963366 + 0.996507j):
            assert min(abs(k - want) for k in got) <= 1e-6
            assert disk_zero_count(p, want, 1e-3, 1) == {1: 1}

    def test_roots_on_region_edge(self):
        upper = [k for k in EX34_ROOTS if k.imag >= 0]  # four on the edge im k = 0
        got = [e.k for e in complex_roots(0, EX34, (0.0, 10.0, 0.0, 1.0))]
        assert got == pytest.approx(upper, abs=5e-6)
        assert sum(k.imag == 0 for k in got) == 4
        real = [e.k for e in real_roots(EX34, m_max=9, k_range=(1.0, 5.0)) if e.mode_m == 9]
        assert [e.k for e in complex_roots(9, EX34, (1.0, 5.0, 0.0, 2.0))] == pytest.approx(
            real, abs=1e-9)
        assert real == pytest.approx([4.43503], abs=1e-5)

    def test_high_mode_roots_match_mpmath(self):
        for p, k0 in ((EX34, 9.3932857), (SEARCH_MATERIALS[4], 8.8502284)):
            got = complex_roots(20, p, (k0 - 0.5, k0 + 0.5, -0.5, 0.5))
            m, want = disk_root_mp(p, k0, 20)
            assert m == 20 and len(got) == 1
            assert abs(got[0].k - want) <= 1e-12

    def test_counts_match_argument_principle(self):
        circles = ((1.5, 0.9), (4.0 + 0.3j, 0.6), (6.0 - 0.2j, 0.7), (8.5, 0.95))
        for p in SEARCH_MATERIALS:
            roots = [e for m in range(9) for e in complex_roots(m, p, (0.0, 10.0, -1.0, 1.0))]
            for center, radius in circles:
                assert all(abs(abs(e.k - center) - radius) > 1e-3 for e in roots)
                inside = [e.mode_m for e in roots if abs(e.k - center) < radius]
                counts = {m: inside.count(m) for m in set(inside)}
                assert counts == disk_zero_count(p, center, radius, 8), (p, center)

    def test_every_mode_up_to_60(self):
        # det_m underflowed at the region's left edge from m = 56, and those
        # boxes never settled; D_m(0) = m + 0.01 here
        roots = [e for m in range(61) for e in complex_roots(m, EX34, (0.0, 10.0, -1.0, 1.0))]
        assert len(roots) == 74 and max(e.mode_m for e in roots) == 21
        assert all(e.residual <= 1e-12 for e in roots)

    def test_zero_at_origin_is_not_reported(self):
        # D_1(0) = (lam - 1) - eta = 0: a double zero at k = 0, left of re k = 1e-6
        p = MaterialParams(4.0, 1.0, 2.0)
        assert disk_determinant(1, 0.0, p) == 0.0
        got = complex_roots(1, p, (0.0, 3.0, -1.0, 1.0))
        assert [e.k for e in got] == [pytest.approx(2.709197, abs=1e-6)]
        assert got[0].k.imag == 0.0

    def test_rejects_bad_regions(self):
        for region in ((1.0, 1.0, -1.0, 1.0), (0.0, 1.0, 1.0, -1.0), (-2.0, -1.0, -1.0, 1.0),
                       (-1.0, 1.0e-7, -1.0, 1.0)):
            with pytest.raises(ConfigError):
                complex_roots(0, EX34, region)

    def test_unsettled_box_raises(self, monkeypatch, capsys):
        monkeypatch.setattr(disk, "_MAX_SPLITS", 0)  # ten roots: one box cannot hold them
        with pytest.raises(NumericalFailure):
            complex_roots(0, EX34, (0.0, 10.0, -1.0, 1.0))
        assert main(["spectrum", "--n", "4", "--eta", "-0.01", "--lambda", "2", "--m-max", "0",
                     "--complex-region", "0,10,-1,1", "--jobs", "1"]) == 3
        assert "did not settle" in capsys.readouterr().err


class TestDeterminantGrid:
    def test_corner_value_at_origin(self):
        re, im, vals = determinant_grid(0, EX34, (0.0, 1.0, -0.5, 0.5), 2, 3)
        assert vals[0, 1] == pytest.approx(0.01, abs=1e-15)  # |d0(0)| = |-eta|

    def test_conjugate_symmetry(self):
        re, im, vals = determinant_grid(0, EX34, (0.0, 5.0, -1.0, 1.0), 21, 11)
        assert np.allclose(vals, vals[:, ::-1], rtol=1e-12)

    def test_minimum_near_published_complex_root(self):
        re, im, vals = determinant_grid(0, EX34, (0.0, 10.0, -1.0, 1.0), 400, 200)
        i, j = np.unravel_index(np.argmin(np.abs(re[:, None] + 1j * im[None, :]
                                                 - (2.2032 + 0.2905j))), vals.shape)
        assert vals[i, j] <= 1e-2


class TestCircleModeSymbol:
    def test_vanishes_at_determinant_root(self):
        assert abs(circle_mode_symbol(0, 3.4567041, EX34)) <= 1e-5

    def test_small_k_limit_is_minus_eta(self):
        val = circle_mode_symbol(0, 1e-4, EX34)
        assert val == pytest.approx(-EX34.eta, abs=1e-6)

    def test_ratio_identity_with_determinant(self):
        # symbol equals det_m / (J_m(k sqrt n) J_m(k)) wherever defined, with
        # det_m = D_m (k/2)^m (k sqrt(n)/2)^m / m!^2
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 50:
            m = int(rng.integers(0, 5))
            k = rng.uniform(0.5, 9.0)
            denom = bessel_j(m, k * EX34.sqrt_n) * bessel_j(m, k)
            if abs(denom) < 1e-3:
                continue
            lhs = circle_mode_symbol(m, k, EX34)
            scale = (k / 2) ** m * (k * EX34.sqrt_n / 2) ** m / math.factorial(m) ** 2
            rhs = disk_determinant(m, k, EX34) * scale / denom
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            checked += 1

    def test_pole_error(self):
        with pytest.raises(PoleError):
            # k sqrt(n) at the first zero of J0 makes the symbol blow up
            circle_mode_symbol(0, bessel_j_positive_root(0, 1) / EX34.sqrt_n, EX34)


class TestTheoreticalProperties:
    def test_lower_bound_regime_a(self):
        # no real eigenvalue below sqrt(mu_1) = j_{0,1} under the regime-A assumptions
        mu1 = bessel_j_positive_root(0, 1) ** 2
        for n in (1.0 / 6.0, 1.0 / 4.0, 1.0 / 3.0):
            p = MaterialParams(n, -3.0, 2.0)
            assert p.regime() == "A"
            eigs = real_roots(p, m_max=8, k_range=(0.05, 8.0))
            assert eigs and eigs[0].k.real ** 2 >= mu1 - 1e-8

    def test_lower_bound_regime_b(self):
        mu1 = bessel_j_positive_root(0, 1) ** 2
        for n in (3.0, 5.0, 7.0):
            p = MaterialParams(n, 1.0, 0.5)
            assert p.regime() == "B"
            eigs = real_roots(p, m_max=8, k_range=(0.05, 6.0))
            assert eigs and eigs[0].k.real ** 2 >= mu1 / n - 1e-8

    def test_monotonicity_in_n_regime_a(self):
        # published first-eigenvalue row at lam=2, eta=-3
        firsts = []
        for n in (1.0 / 6.0, 1.0 / 5.0, 1.0 / 4.0, 1.0 / 3.0):
            eigs = real_roots(MaterialParams(n, -3.0, 2.0), m_max=8, k_range=(3.0, 8.0))
            firsts.append(eigs[0].k.real)
        assert firsts == pytest.approx([4.8387, 4.9935, 5.6504, 6.5592], abs=5e-5)
        assert all(a <= b for a, b in zip(firsts, firsts[1:]))

    def test_monotonicity_in_eta_regime_b(self):
        # published first-eigenvalue row at lam=1/2, n=3: decreasing in eta.
        # The last printed value is 1.6354 but the root is 1.635829 (confirmed
        # against a 30-digit evaluation), hence the looser tolerance there.
        firsts = []
        for eta in (1.0, 2.0, 3.0, 4.0, 5.0):
            eigs = real_roots(MaterialParams(3.0, eta, 0.5), m_max=8, k_range=(1.0, 5.0))
            firsts.append(eigs[0].k.real)
        assert firsts[:4] == pytest.approx([3.9850, 3.6700, 3.5212, 2.6262], abs=5e-5)
        assert firsts[4] == pytest.approx(1.635829, abs=1e-5)
        assert all(a >= b for a, b in zip(firsts, firsts[1:]))
