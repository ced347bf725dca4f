"""Reference kernels for J0/J1: plain Python scalars plus vectorized numpy.

Algorithm (same in the compiled twin):
  |x| <= 12  : Taylor series with Kahan-compensated summation
  |x| >  12  : amplitude/phase asymptotic expansion, 11 terms by Horner

Absolute error is below ~1.5e-12 on |x| <= 100 for both branches; the
asymptotic truncation floor at the x = 12 crossover is ~6e-13 and decays
fast for larger x.
"""

import math

import numpy as np

from .coeffs import P0, Q0, P1, Q1, SERIES_CUTOFF

BACKEND = "pure"


def _series_j0(x):
    q = 0.25 * x * x
    term = 1.0
    s = 1.0
    c = 0.0
    k = 0
    while True:
        k += 1
        term *= -q / (k * k)
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if k > 3 and abs(term) <= 1e-18 * (1.0 + abs(s)):
            return s


def _series_j1(x):
    q = 0.25 * x * x
    term = 0.5 * x
    s = term
    c = 0.0
    k = 0
    while True:
        k += 1
        term *= -q / (k * (k + 1))
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if k > 3 and abs(term) <= 1e-18 * (1.0 + abs(s)):
            return s


def _horner(y, coeffs):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def j0(x):
    """J0 at a scalar, abs error <= ~1.5e-12 on |x| <= 100."""
    x = abs(x)
    if x <= SERIES_CUTOFF:
        return _series_j0(x)
    y = 1.0 / (x * x)
    p = _horner(y, P0)
    q = _horner(y, Q0) / x
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def j1(x):
    """J1 at a scalar; odd in x."""
    ax = abs(x)
    if ax <= SERIES_CUTOFF:
        v = _series_j1(ax)
    else:
        y = 1.0 / (ax * ax)
        p = _horner(y, P1)
        q = _horner(y, Q1) / ax
        chi = ax - 0.75 * math.pi
        v = math.sqrt(2.0 / (math.pi * ax)) * (p * math.cos(chi) - q * math.sin(chi))
    return -v if x < 0 else v


def _series_j0_arr(x):
    # the scalar stopping rule per element: an element stops once its
    # term is below 1e-18 (terms only shrink once they get there), so a
    # small x runs a handful of terms and x = 12 runs 30, and an element
    # gets the same bits in any batch; the compensation keeps the
    # cancellation error near 1e-13
    q = 0.25 * x * x
    term = np.ones_like(x)
    s = np.ones_like(x)
    c = np.zeros_like(x)
    j = np.arange(x.size)
    k = 0
    while j.size:
        k += 1
        tj = term[j] * (-q[j]) / (k * k)
        y = tj - c[j]
        sj = s[j]
        t = sj + y
        c[j] = (t - sj) - y
        s[j] = t
        term[j] = tj
        if k > 3:
            j = j[np.abs(tj) > 1e-18]
    return s


def _asym_j0_arr(x):
    y = 1.0 / (x * x)
    p = np.zeros_like(x)
    for cf in reversed(P0):
        p = p * y + cf
    q = np.zeros_like(x)
    for cf in reversed(Q0):
        q = q * y + cf
    q /= x
    chi = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def j0_array(x):
    """Vectorized J0 over a float64 array."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    small = x <= SERIES_CUTOFF
    if small.any():
        out[small] = _series_j0_arr(x[small])
    big = ~small
    if big.any():
        out[big] = _asym_j0_arr(x[big])
    return out
