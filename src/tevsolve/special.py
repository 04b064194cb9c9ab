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

``bessel_j`` and ``hankel1`` evaluate a symmetric square matrix argument, such
as the node distances of an assembly, on its N(N+1)/2 upper-triangle entries.

Supported range: finite ``z`` with ``|z| <= 1e4`` (one check, shared by all
four kernels) and order ``|m| <= 60``, which comfortably covers every
wavenumber the solvers visit (``k <= 10``, ``k*sqrt(n) <= 20``).  Within
``|z| <= 50`` values are accurate to better than 1e-12 relative.  A value
that overflows raises ``RangeError``, never a numpy warning.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps

import numpy as np
import scipy.special as _sp

from .errors import RangeError, SingularityError

MAX_ORDER = 60
MAX_ABS_Z = 1.0e4
HANKEL_MIN_ABS_Z = 1.0e-8


def _check_argument(z):
    z = np.asarray(z)
    if not (np.abs(z) <= MAX_ABS_Z).all():  # NaN and inf fail the comparison too
        raise RangeError(f"z must be finite with |z| <= {MAX_ABS_Z:g}")
    return z


def _finite_or_raise(value, what: str):
    if not np.isfinite(value).all():
        raise RangeError(f"{what} overflowed or lost significance")
    return value


@lru_cache(maxsize=32)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n)  # read-only: every caller shares them
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _fold_symmetric(kernel):
    """kernel(m, z) on the upper triangle of a symmetric square z, mirrored;
    any other z goes straight through.  The values are bitwise those of kernel."""
    @wraps(kernel)
    def folded(m, z):
        z = np.asarray(z)
        if z.ndim != 2 or not np.array_equal(z, z.T):  # unequal shapes are unequal
            return kernel(m, z)
        rows, cols = _upper_triangle(z.shape[0])
        upper = kernel(m, z[rows, cols])
        out = np.empty(z.shape, upper.dtype)
        out[rows, cols] = out[cols, rows] = upper
        return out
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


@_fold_symmetric
def bessel_j(m: int, z):
    """Bessel function of the first kind J_m(z), integer order.

    Real input stays on the real path (the result dtype matches the input),
    so ``im(J_m(x)) == 0`` exactly for real x.
    """
    return _bessel_j(m, z, 0)


def bessel_j_prime(m: int, z):
    """First derivative J'_m(z), via (J_{m-1} - J_{m+1})/2 (and -J_1 for m=0)."""
    return _bessel_j(m, z, 1)


def bessel_j_second(m: int, z):
    """Second derivative J''_m(z), via (J_{m-2} - 2 J_m + J_{m+2})/4."""
    return _bessel_j(m, z, 2)


@_fold_symmetric
def hankel1(m: int, z):
    """Hankel function of the first kind H^(1)_m(z) for m in {0, 1}.

    Requires ``re(z) > 0`` (away from the branch cut) and ``|z| >= 1e-8``;
    closer to the origin the logarithmic singularity must be handled by the
    caller's kernel splitting.
    """
    if m not in (0, 1):
        raise RangeError(f"hankel1 supports orders 0 and 1 only, got {m}")
    z = _check_argument(z)
    if (np.abs(z) < HANKEL_MIN_ABS_Z).any():
        raise SingularityError(
            f"|z| < {HANKEL_MIN_ABS_Z:g}: too close to the logarithmic singularity"
        )
    if np.any(np.real(z) <= 0):
        raise RangeError("hankel1 requires re(z) > 0")
    # H1_m(z) = (2/(pi i)) e^{-i m pi/2} K_m(-iz), the factor in Amos's real arithmetic
    k = _sp.kv(m, -1j * z)
    rhpi = -2.0 / math.pi
    cr, ci = -rhpi * math.sin(-m * math.pi / 2), rhpi * math.cos(-m * math.pi / 2)
    return _finite_or_raise(k.real * cr - k.imag * ci + 1j * (k.real * ci + k.imag * cr),
                            f"H1_{m}")
