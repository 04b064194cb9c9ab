"""Bessel and Hankel functions of integer order for real and complex argument.

Scalar kernel shared by the disk determinant and the boundary-integral path.
Backed by the compiled Amos routines in :mod:`scipy.special`; this module adds
the supported-range checks, integer-order conventions, and error mapping the
rest of the package relies on.  All functions accept scalars or numpy arrays
and are pure and reentrant.

H^(1)_m goes through ``scipy.special.kv``, which releases the GIL, so that
kernel assemblies on several threads run in parallel; ``scipy.special.hankel1``
holds it.  Both call the same Amos K_m routine, and the rotation is done as
Amos does it, so the values are bitwise those of ``scipy.special.hankel1``.

``bessel_j`` and ``hankel1`` take a table of :func:`kernel_table` for a real matrix
r, given z = k r: they evaluate the kernel once per class of equal entries of r, at
``z.flat[reps]``, and spread the values by ``inverse``.  For m = 0, 1 the entire
A_m, B_m of J_m = z^m A_m, Y_m = (2/pi) ln(z/2) J_m - [m = 1] 2/(pi z) + z^m B_m
(DLMF 10.8) are fitted in x = (z/z_max)^2, z_max = k max(r), from Amos at 41 points
of [0, z_max], to 5e-15 of the kernel's largest value for |z_max| <= 15, and summed
on the table's basis.  Amos runs on each class instead for fewer than 205 classes,
where it is cheaper, where the fit's tail and rounding exceed 1e-14 (from |z_max| of
about 35), and for H1_1 above im(z_max) = 2.5.  Without a table, z is evaluated as
given.

Supported range: finite ``z`` with ``|z| <= 1e4`` (one check, shared by all
four kernels) and order ``|m| <= 170`` (the disk's modes up to 169).  Within
``|z| <= 50`` values are accurate to better than 1e-12 relative; at order 170
to 2e-13 for ``|z| <= 26``, wherever ``|J_170| >= 1e-280``.  A value
that overflows raises ``RangeError``, never a numpy warning.
"""

from __future__ import annotations

import math
from functools import wraps

import numpy as np
import scipy.special as _sp

from .errors import RangeError, SingularityError

MAX_ORDER = 170
MAX_ABS_Z = 1.0e4
HANKEL_MIN_ABS_Z = 1.0e-8
FIT_DEGREE = 40
_FIT_RTOL = 1.0e-14
# the fit's points x_l = (1 + cos t_l)/2, t_l = pi (2l + 1)/(2D + 2), lie at cos(t_l/2) z_max;
# _FIT maps values there to coefficients by cos(j t_l), j (2l + 1) reduced mod 4D + 4 first
_L = np.arange(FIT_DEGREE + 1)
_FIT_FRACTIONS = np.cos(np.pi * (2 * _L + 1) / (4 * FIT_DEGREE + 4))
_FIT = np.cos(np.pi / (2 * FIT_DEGREE + 2) * (np.outer(_L, 2 * _L + 1) % (4 * FIT_DEGREE + 4)))
_FIT *= np.where(_L == 0, 1.0, 2.0)[:, None] / (FIT_DEGREE + 1)


def _check_argument(z):
    z = np.asarray(z)
    if not (np.abs(z) <= MAX_ABS_Z).all():  # NaN and inf fail the comparison too
        raise RangeError(f"z must be finite with |z| <= {MAX_ABS_Z:g}")
    return z


def _finite_or_raise(value, what: str):
    if not np.isfinite(value).all():
        raise RangeError(f"{what} overflowed or lost significance")
    return value


def kernel_table(r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table of a real matrix r for ``table=``, read-only: the flat index of
    the first entry of each class of equal entries, in ascending order, each entry's
    class (r's shape), and the basis T_j(2 (rho/rho_max)^2 - 1), j <= FIT_DEGREE,
    at the classes' values rho (2.4 MB for the 7,261 classes of the ellipse at N = 240)."""
    rho, reps, inverse = np.unique(r, return_index=True, return_inverse=True)
    basis = np.polynomial.chebyshev.chebvander(2.0 * (rho / rho[-1]) ** 2 - 1.0, FIT_DEGREE)
    table = reps, inverse.reshape(np.shape(r)), basis
    for array in table:
        array.flags.writeable = False
    return table


def _fitted(m: int, z: np.ndarray, basis, kernel):
    """kernel(m, z), J_m or H1_m, at the representatives z by the Chebyshev fit of
    A_m and B_m (module docstring); None where the fit's last two coefficients and
    its rounding, in units of z^m times the kernel, exceed _FIT_RTOL of its largest,
    and for H1_1 above im(z_max) = 2.5, where the rounding of J_1 + i Y_1 outgrows it."""
    hankel = kernel.__name__ == "hankel1"
    z = _hankel_argument(m, z) if hankel else _check_argument(z)
    nodes, c, log = z[-1] * _FIT_FRACTIONS, 2.0 / math.pi, 0.0
    zs = ns = 1.0
    if m:  # s = z / (1 + |z|^2/4) keeps J_1 / s and z B_1 / s one size on [0, z_max],
        # and entire in x, as |z|^2 = |z_max|^2 x on the ray
        zs, ns = (v / (1.0 + 0.25 * np.abs(v) ** 2) for v in (z, nodes))
    j = _bessel_j(m, nodes, 0)
    values, at_nodes = [j], kernel(m, nodes) if hankel else j
    if hankel:  # z^m B_m from Y_m = -i (H1_m - J_m), or by its series where that cancels
        log = c * np.log(nodes / 2.0)
        zb = -1j * (at_nodes - j) - log * j + m * c / nodes
        values.append(np.where(np.abs(nodes) <= 2.0, nodes**m * _b_series(m, nodes), zb))
    values = np.column_stack(values) / np.reshape(ns, (-1, 1))
    coef = _FIT @ values.view(float)  # real and imaginary parts apart
    mag = np.abs(coef.view(values.dtype))
    error = np.abs(nodes**m * ns * (1.0 + 1j * log)).max() * np.sum(
        mag[-2:].max(axis=0) + 1.1e-16 * mag.sum(axis=0))
    if (hankel and m and z[-1].imag > 2.5
            or not error <= _FIT_RTOL * np.abs(nodes**m * at_nodes).max()):
        return None
    a, *b = (basis @ coef).view(values.dtype).T
    out = zs * a
    if hankel:
        out = out + 1j * (c * np.log(z / 2.0) * out - m * c / z + zs * b[0])
    return _finite_or_raise(out, f"{kernel.__name__}_{m}")


def _b_series(m: int, z):
    """B_m(z) = -(1/(2^m pi)) sum_k (psi(k+1) + psi(k+m+1)) (-z^2/4)^k / (k! (k+m)!)
    (DLMF 10.8.1), m = 0, 1, to rounding for |z| <= 2."""
    term, total, psi = 1.0, 0.0, m - 2.0 * np.euler_gamma  # psi(1) + psi(m + 1)
    for k in range(1, 20):
        total, term = total + psi * term, term * (-0.25 * z * z) / (k * (k + m))
        psi += 1.0 / k + 1.0 / (k + m)
    return total / (-math.pi * 2**m)


def _on_table(kernel):
    """kernel(m, z), or with a table, kernel(m, z.flat[reps]) spread over z's
    shape by inverse: by :func:`_fitted` where the fit holds, else from Amos."""
    @wraps(kernel)
    def folded(m, z, table=None):
        if table is None:
            return kernel(m, z)
        z = np.asarray(z)
        reps, inverse, basis = table
        values, fit = np.take(z, reps), None
        # the fit's fixed cost is that of Amos on ~200 representatives
        if m in (0, 1) and values.size >= 5 * (FIT_DEGREE + 1):
            fit = _fitted(m, values, basis, kernel)
        values = kernel(m, values) if fit is None else fit
        # np.take, not values[inverse], whose SIMD rounding can depend on alignment;
        # an out of z's shape rejects a table that does not fit z
        return np.take(values, inverse, out=np.empty(z.shape, values.dtype))
    return folded


def _bessel_j(m: int, z, n: int):
    """The n-th derivative of J_m(z), n = 0, 1, 2; J_{-m} = (-1)^m J_m."""
    if not (abs(m) <= MAX_ORDER and m == int(m)):  # NaN and inf fail before int()
        raise RangeError(f"order must be an integer with |m| <= {MAX_ORDER}, got {m!r}")
    m = int(m)
    z = _check_argument(z)
    if n == 0:
        value = _sp.jv(abs(m), z)
    else:
        with np.errstate(invalid="ignore"):  # inf - inf of an overflow, raised below
            value = _sp.jvp(abs(m), z, n)
    _finite_or_raise(value, "J" + "'" * n + f"_{m}")
    return -value if m < 0 and m % 2 else value


@_on_table
def bessel_j(m: int, z):
    """Bessel function of the first kind J_m(z), integer order.

    Real input stays on the real path (the result dtype matches the input),
    so ``im(J_m(x)) == 0`` exactly for real x.  ``table``: one evaluation
    per class of a :func:`kernel_table`, as the module docstring states.
    """
    return _bessel_j(m, z, 0)


def bessel_j_prime(m: int, z):
    """First derivative J'_m(z), via (J_{m-1} - J_{m+1})/2 (and -J_1 for m=0)."""
    return _bessel_j(m, z, 1)


def bessel_j_second(m: int, z):
    """Second derivative J''_m(z), via (J_{m-2} - 2 J_m + J_{m+2})/4.  No caller in
    the package; kept for the TARGETS of perfbench/tracer.py."""
    return _bessel_j(m, z, 2)


def _hankel_argument(m: int, z):
    """z, checked for H1_m: m in {0, 1}, re(z) > 0 and 1e-8 <= |z| <= 1e4."""
    if m not in (0, 1):
        raise RangeError(f"hankel1 supports orders 0 and 1 only, got {m}")
    z = _check_argument(z)
    if (np.abs(z) < HANKEL_MIN_ABS_Z).any():
        raise SingularityError(
            f"|z| < {HANKEL_MIN_ABS_Z:g}: too close to the logarithmic singularity"
        )
    if np.any(np.real(z) <= 0):
        raise RangeError("hankel1 requires re(z) > 0")
    return z


@_on_table
def hankel1(m: int, z):
    """Hankel function of the first kind H^(1)_m(z) for m in {0, 1}.

    Requires ``re(z) > 0`` (away from the branch cut) and ``|z| >= 1e-8``;
    closer to the origin the logarithmic singularity must be handled by the
    caller's kernel splitting.  ``table`` as for :func:`bessel_j`.
    """
    # H1_m(z) = (2/(pi i)) e^{-i m pi/2} K_m(-iz), the factor in Amos's real arithmetic
    k = _sp.kv(m, -1j * _hankel_argument(m, z))
    rhpi = -2.0 / math.pi
    cr, ci = -rhpi * math.sin(-m * math.pi / 2), rhpi * math.cos(-m * math.pi / 2)
    return _finite_or_raise(k.real * cr - k.imag * ci + 1j * (k.real * ci + k.imag * cr),
                            f"H1_{m}")
