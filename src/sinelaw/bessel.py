"""Bessel functions of the first kind (integer order) and two identities.

Everything is self-contained: a table of piecewise polynomials (J0, up
to 128), Miller's downward recurrence (J1 below 20, Jn below 20 or for
n >= x), the amplitude/phase asymptotic form (J0, J1 beyond) and the
forward recurrence from J0 and J1 (Jn for n < x from 20 up); see
kernels. No external special-function library is used anywhere in the
package.
"""

import math

import numpy as np

from . import kernels

__all__ = ["j0", "j1", "jn", "j0_array", "jacobi_anger_partial",
           "parseval_partial", "j0_zero"]


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
    """Bessel J1(x). Odd in x. Abs error below 1e-15 (3.2e-16 measured
    on [0, 20), 6e-16 on [20, 100])."""
    _check_finite(x)
    return kernels.j1(x)


def j0_array(x):
    """Vectorized J0 over an array (the quadrature hot path)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("array passed to j0_array contains non-finite values")
    return kernels.j0_array(x)


def _forward(n, x):
    # [J_0(x), ..., J_n(x)] by the forward recurrence, stable for n < x
    out = [kernels.j0(x), kernels.j1(x)]
    for k in range(1, n):
        out.append((2.0 * k / x) * out[k] - out[k - 1])
    return out


def _orders(w, K):
    """J_0(|w|), J_1(|w|), ... up to order K at least. Miller's pass is
    asked for order 0, so it depends on w alone and a larger K only
    appends terms; the orders past it, below 3e-19, are 0."""
    x = abs(w)
    if x < kernels._MILLER_END or K >= x:
        js = kernels.miller(x, 0)
        return js + [0.0] * (K + 1 - len(js))
    return _forward(K, x)


def jn(n, x):
    """Bessel J_n(x) for integer n (negative allowed).

    The reflection J_{-n}(x) = (-1)^n J_n(x) and oddness in x for odd n
    are applied as exact sign rules, never by re-evaluation.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {n!r}")
    _check_finite(x)
    n = int(n)
    sign = -1.0 if n % 2 and (n < 0) != (x < 0) else 1.0
    n, x = abs(n), abs(x)
    if n < 2:
        return sign * (kernels.j1(x) if n else kernels.j0(x))
    if x < kernels._MILLER_END or n >= x:
        return sign * kernels.miller(x, n)[n]
    return sign * _forward(n, x)[n]


def jacobi_anger_partial(w, x, K):
    """Partial sum sum_{k=-K..K} J_k(w) e^{ikx} of the plane-wave expansion.

    Converges to exp(i w sin x) as K grows; the tail decays
    super-exponentially once K exceeds |w|.
    """
    _check_finite(w, "w")
    _check_finite(x, "x")
    if K < 1:
        raise ValueError("K must be >= 1")
    js = _orders(w, K)
    if w < 0:  # e^{iw sin x} is unchanged by (w, x) -> (-w, -x)
        x = -x
    total = complex(js[0], 0.0)
    for k in range(1, K + 1):
        total += js[k] * (2j * math.sin(k * x) if k % 2
                          else 2.0 * math.cos(k * x))
    return total


def parseval_partial(w, K):
    """Partial sum sum_{k=-K..K} k^2 J_k(w)^2; increases to w^2/2."""
    _check_finite(w, "w")
    if K < 1:
        raise ValueError("K must be >= 1")
    js = _orders(w, K)
    s = 0.0
    for k in range(1, K + 1):
        s += 2.0 * (k * js[k]) * (k * js[k])
    return s


# ---------------------------------------------------------------------------
# zeros of J0

def j0_zero(m):
    """m-th positive zero of J0 (m >= 1), within an ulp of mpmath for
    m <= 256: McMahon's expansion from beta = (m - 1/4) pi, then three
    Newton steps with J0' = -J1."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"zero index starts at 1, got {m!r}")
    beta = (int(m) - 0.25) * math.pi
    bi = 1.0 / beta
    x = beta + bi * (0.125 + bi * bi * (-31.0 / 384.0 + bi * bi * (
        3779.0 / 15360.0)))
    for _ in range(3):
        dfx = -kernels.j1(x)
        if dfx != 0.0:
            x -= kernels.j0(x) / dfx
    return x
