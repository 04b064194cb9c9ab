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

Supported range: ``|z| <= 1e4`` and order ``|m| <= 60``, which comfortably
covers every wavenumber the solvers visit (``k <= 10``, ``k*sqrt(n) <= 20``).
Within ``|z| <= 50`` values are accurate to better than 1e-12 relative.
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


def _check_argument(z, name: str = "z"):
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise RangeError(f"{name} must be finite")
    if np.any(np.abs(z) > MAX_ABS_Z):
        raise RangeError(f"|{name}| exceeds supported range {MAX_ABS_Z:g}")
    return z


def _check_order(m: int) -> int:
    if m != int(m):
        raise RangeError(f"order must be an integer, got {m!r}")
    m = int(m)
    if abs(m) > MAX_ORDER:
        raise RangeError(f"order |m| = {abs(m)} exceeds supported range {MAX_ORDER}")
    return m


def _finite_or_raise(value, what: str):
    if not np.all(np.isfinite(np.asarray(value))):
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


@_fold_symmetric
def bessel_j(m: int, z):
    """Bessel function of the first kind J_m(z), integer order.

    Negative orders use J_{-m}(z) = (-1)^m J_m(z).  Real input stays on the
    real path (the result dtype matches the input), so ``im(J_m(x)) == 0``
    exactly for real x.
    """
    m = _check_order(m)
    z = _check_argument(z)
    sign = 1.0
    if m < 0:
        m, sign = -m, (-1.0) ** m
    return _finite_or_raise(sign * _sp.jv(m, z), f"J_{m}")


def bessel_j_prime(m: int, z):
    """First derivative J'_m(z), via (J_{m-1} - J_{m+1})/2 (and -J_1 for m=0)."""
    m = _check_order(m)
    z = _check_argument(z)
    sign = 1.0
    if m < 0:
        m, sign = -m, (-1.0) ** m
    return _finite_or_raise(sign * _sp.jvp(m, z), f"J'_{m}")


def bessel_j_second(m: int, z):
    """Second derivative J''_m(z), via (J_{m-2} - 2 J_m + J_{m+2})/4."""
    m = _check_order(m)
    z = _check_argument(z)
    sign = 1.0
    if m < 0:
        m, sign = -m, (-1.0) ** m
    return _finite_or_raise(sign * _sp.jvp(m, z, n=2), f"J''_{m}")


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
    za = np.abs(z)
    if np.any(za < HANKEL_MIN_ABS_Z):
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
