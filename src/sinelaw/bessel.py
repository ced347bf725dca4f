"""Bessel functions of the first kind (integer order) and two identities.

Everything is self-contained: a table of piecewise polynomials (J0, up
to 128) and Taylor series with compensated summation (J1, Jn) for small
arguments, the amplitude/phase asymptotic form for large ones, and
stabilized recurrences for higher orders (see kernels). No external
special-function library is used anywhere in the package.
"""

import math
import threading

import numpy as np

from . import kernels

__all__ = ["j0", "j1", "jn", "j0_array", "jacobi_anger_partial",
           "parseval_partial", "j0_zero", "jn_upper_bound"]


def _check_finite(x, name="x"):
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def j0(x):
    """Bessel J0(x). Even in x, |J0| <= 1. Abs error below 2.3e-16 on
    |x| < 12.5 (1.1e-16 measured), 1e-15 on [12.5, 20) (5.6e-16) and
    2e-15 on [20, 128) (1.2e-15), from the table of half-unit pieces;
    below 6e-13 beyond (asymptotic form; 1.9e-16 measured on [128, 200])."""
    _check_finite(x)
    return kernels.j0(x)


def j1(x):
    """Bessel J1(x). Odd in x."""
    _check_finite(x)
    return kernels.j1(x)


def j0_array(x):
    """Vectorized J0 over an array (the quadrature hot path)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("array passed to j0_array contains non-finite values")
    return kernels.j0_array(x)


def _jn_forward(n, x):
    # stable for n < x
    jm, jc = kernels.j0(x), kernels.j1(x)
    for k in range(1, n):
        jm, jc = jc, (2.0 * k / x) * jc - jm
    return jc


def _jn_miller(n, x):
    # downward recurrence, normalized by J0(x) + 2*sum_{k>=1} J_{2k}(x) = 1
    top = max(n, int(x)) + int(math.sqrt(40.0 * max(n, 1))) + 14
    top += top % 2
    jp = 0.0  # J_{k+1}
    jc = 1e-290  # J_k
    res = 0.0
    even_sum = 0.0
    for k in range(top, 0, -1):
        jm = (2.0 * k / x) * jc - jp  # J_{k-1}
        jp = jc
        jc = jm
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            res *= 1e-250
            even_sum *= 1e-250
        if k - 1 == n:
            res = jc
        if k - 1 >= 2 and (k - 1) % 2 == 0:
            even_sum += jc
    return res / (jc + 2.0 * even_sum)


def jn(n, x):
    """Bessel J_n(x) for integer n (negative allowed).

    The reflection J_{-n}(x) = (-1)^n J_n(x) and oddness in x for odd n
    are applied as exact sign rules, never by re-evaluation.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {n!r}")
    _check_finite(x)
    n = int(n)
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2 == 1:
            sign = -sign
    if x < 0 and n % 2 == 1:
        sign = -sign
    x = abs(x)
    if n == 0:
        return sign * kernels.j0(x)
    if x == 0.0:
        return 0.0
    if n == 1:
        return sign * kernels.j1(x)
    if x <= kernels.CUTOFF:
        return sign * kernels.jn_series(n, x)
    if n < x:
        return sign * _jn_forward(n, x)
    return sign * _jn_miller(n, x)


def jacobi_anger_partial(w, x, K):
    """Partial sum sum_{k=-K..K} J_k(w) e^{ikx} of the plane-wave expansion.

    Converges to exp(i w sin x) as K grows; the tail decays
    super-exponentially once K exceeds |w|.
    """
    _check_finite(w, "w")
    _check_finite(x, "x")
    if K < 1:
        raise ValueError("K must be >= 1")
    total = complex(jn(0, w), 0.0)
    for k in range(1, K + 1):
        jk = jn(k, w)
        if k % 2 == 0:
            total += jk * (2.0 * math.cos(k * x))
        else:
            total += jk * (2j * math.sin(k * x))
    return total


def parseval_partial(w, K):
    """Partial sum sum_{k=-K..K} k^2 J_k(w)^2; increases to w^2/2."""
    _check_finite(w, "w")
    if K < 1:
        raise ValueError("K must be >= 1")
    s = 0.0
    for k in range(1, K + 1):
        jk = jn(k, w)
        s += 2.0 * (k * jk) * (k * jk)
    return s


def jn_upper_bound(n, x):
    """|x|^n / (2^n Gamma(n+1/2) Gamma(1/2)) with the gamma factor in the
    closed form (2n)! sqrt(pi) / (4^n n!).

    Valid as a bound on |J_n| for n >= 3; for n <= 2 it undershoots near
    x = 0 (e.g. it gives 1/pi at n = 0 where J_0(0) = 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    g = math.sqrt(math.pi)  # Gamma(1/2)
    for i in range(1, n + 1):  # Gamma(n+1/2) = prod (2i-1)/2 * sqrt(pi)
        g *= (2 * i - 1) / 2.0
    return abs(x) ** n / (2.0 ** n * g * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# zeros of J0, cached

_MCMAHON = (0.125, -31.0 / 384.0, 3779.0 / 15360.0)
_zeros_lock = threading.Lock()
_zeros = np.empty(0)  # the first zeros, in order; replaced whole, never changed


def j0_zero(m):
    """m-th positive zero of J0 (m >= 1), refined to ~1e-14.

    Zeros are computed from the McMahon expansion polished with Newton
    steps (J0' = -J1) and cached in one array snapshot: a growth
    computes the missing zeros under a lock and swaps in the extended
    array, so a reader indexes whichever snapshot it took.
    """
    return float(_j0_zeros(m))


def _j0_zeros(m):
    """j0_zero over an integer array of indices m >= 1."""
    global _zeros
    m = np.asarray(m)
    if m.size and m.min() < 1:
        raise ValueError("zero index starts at 1")
    zeros = _zeros
    if m.size and m.max() > zeros.size:
        with _zeros_lock:
            new = []
            for k in range(_zeros.size + 1, int(m.max()) + 1):
                beta = (k - 0.25) * math.pi
                bi = 1.0 / beta
                x = beta + bi * (_MCMAHON[0] + bi * bi * (
                    _MCMAHON[1] + bi * bi * _MCMAHON[2]))
                for _ in range(3):
                    fx = kernels.j0(x)
                    dfx = -kernels.j1(x)
                    if dfx != 0.0:
                        x -= fx / dfx
                new.append(x)
            _zeros = zeros = np.concatenate([_zeros, new])
    return zeros[m - 1]
