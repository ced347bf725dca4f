"""Bessel kernel tests.

Oracles:
  * a high-precision truncated Taylor series in mpmath (independent of
    the double-precision kernels) for point values and the first zero;
  * the periodic-trapezoid quadrature of the integral representation
    (1/2pi) int_-pi^pi e^{i x sin u} du, spectrally accurate;
  * the plane-wave identity checked against direct complex exponentials.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinelaw import bessel

mp.mp.dps = 40


def j0_series_highprec(x, terms=120):
    """Truncated series sum_k (-1)^k (x/2)^{2k} / (k!)^2 in 40-digit arithmetic."""
    x = mp.mpf(x)
    q = (x / 2) ** 2
    term = mp.mpf(1)
    acc = mp.mpf(1)
    for k in range(1, terms):
        term *= -q / (k * k)
        acc += term
    return acc


def j0_integral_oracle(x, n=4096):
    """Trapezoid of the integral representation; exact to machine level
    for periodic analytic integrands."""
    u = np.linspace(-math.pi, math.pi, n, endpoint=False)
    return float(np.mean(np.cos(x * np.sin(u))))


def test_j0_at_zero():
    assert bessel.j0(0.0) == 1.0


def test_j0_first_zero_via_series_rootfind():
    # bisect the high-precision series on [2, 3]
    lo, hi = mp.mpf(2), mp.mpf(3)
    for _ in range(140):
        mid = (lo + hi) / 2
        if j0_series_highprec(lo) * j0_series_highprec(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = float((lo + hi) / 2)
    assert root == pytest.approx(2.404825557695773, abs=1e-13)
    assert abs(bessel.j0(root)) <= 1e-9


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
def test_j0_matches_integral_representation(x):
    assert bessel.j0(x) == pytest.approx(j0_integral_oracle(x), abs=1e-12)


def test_j0_accuracy_sweep_against_highprec_series():
    # bessel.j0's bounds, 2.3e-16 up to 12 and 6e-13 beyond; the tighter
    # bound of each range is in tests/test_kernels.py
    xs = np.concatenate([np.linspace(0.0, 100.0, 457),
                         np.arange(1.0, 13.0) - 1e-12, np.arange(1.0, 13.0)])
    vals = bessel.j0_array(xs)
    for x, v in zip(xs, vals):
        ref = float(mp.besselj(0, mp.mpf(float(x))))
        bound = 2.3e-16 if x <= 12.0 else 6e-13
        assert abs(v - ref) <= bound, f"x={x}"


def test_j0_scalar_array_consistency():
    # scalar and array J0 run the same routines on the same
    # coefficients, so they agree bit for bit, across x = 12 too
    xs = np.concatenate([np.linspace(0.0, 60.0, 311), [11.999, 12.0, 12.001]])
    arr = bessel.j0_array(xs)
    sc = np.array([bessel.j0(float(x)) for x in xs])
    assert np.array_equal(arr, sc)


def test_j0_array_huge_x_warns_nothing():
    # x * x overflows past 1.3e154; the asymptotic form's y = 1/x^2 is
    # then 0, silently, and the array agrees with the scalar J0
    xs = np.array([1e300, -1e200, 1e154, 2e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = bessel.j0_array(xs)
    assert np.array_equal(arr, [bessel.j0(float(x)) for x in xs])
    assert np.all(np.abs(arr) < 1e-76)


@given(st.floats(-100.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_j0_bounded_and_even(x):
    v = bessel.j0(x)
    assert abs(v) <= 1.0 + 1e-12
    assert v == bessel.j0(-x)


def test_j0_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            bessel.j0(bad)
        with pytest.raises(ValueError):
            bessel.jn(2, bad)


# ---------------------------------------------------------------------------
# jn

def test_jn_trivial_and_small():
    assert bessel.jn(1, 0.0) == 0.0
    assert bessel.jn(7, 0.0) == 0.0
    assert bessel.jn(0, 1.3) == bessel.j0(1.3)


@pytest.mark.parametrize("x", [0.1, 2.0, 7.0])
def test_jn_reflection_is_exact(x):
    # sign rule, bit-exact: J_{-3} = -J_3
    assert bessel.jn(-3, x) == -bessel.jn(3, x)
    assert bessel.jn(-4, x) == bessel.jn(4, x)


@given(st.integers(-25, 25), st.floats(0.01, 40.0))
@settings(max_examples=150, deadline=None)
def test_jn_reflection_property(n, x):
    assert bessel.jn(-n, x) == (-1.0) ** (n % 2) * bessel.jn(n, x)


@pytest.mark.parametrize("n,x", [(2, 0.7), (3, 2.0), (5, 2.0), (8, 11.0),
                                 (2, 14.0), (7, 20.0), (25, 14.0),
                                 (40, 13.0), (12, 80.0), (60, 30.0)])
def test_jn_against_highprec(n, x):
    ref = float(mp.besselj(n, mp.mpf(x)))
    assert bessel.jn(n, x) == pytest.approx(ref, abs=2e-12)


@given(st.integers(0, 60), st.floats(0.0, 80.0))
@settings(max_examples=300, deadline=None)
def test_jn_against_mpmath_property(n, x):
    # all branches: J0 and J1, the series up to 12, the forward recurrence
    # from J0 and J1 for n < x and Miller's downward recurrence beyond
    ref = float(mp.besselj(n, mp.mpf(x)))
    assert abs(bessel.jn(n, x) - ref) <= 2e-12


def test_jn_bound_example_order5():
    # |J_5(2)| <= 1/(Gamma(5.5) sqrt(pi))
    bound = 1.0 / (float(mp.gamma(5.5)) * math.sqrt(math.pi))
    assert abs(bessel.jn(5, 2.0)) <= bound
    assert bessel.jn_upper_bound(5, 2.0) == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_jn_bound_holds_for_orders_three_up(n):
    # the closed-form bound |x|^n/(2^n Gamma(n+1/2) Gamma(1/2)) is a true
    # envelope only from order 3 on; at orders 0..2 it undershoots near
    # x = 0 (at order 0 it equals 1/pi while J_0(0) = 1)
    for x in np.linspace(0.01, 30.0, 120):
        assert abs(bessel.jn(n, float(x))) <= bessel.jn_upper_bound(n, float(x)) + 1e-12


def test_bound_counterexample_low_order_documented():
    # the reason the envelope property starts at order 3
    assert bessel.j0(0.0) > bessel.jn_upper_bound(0, 0.0)


# ---------------------------------------------------------------------------
# identity partial sums

def test_jacobi_anger_at_w_zero():
    for x in (0.0, 0.7, -2.0):
        assert bessel.jacobi_anger_partial(0.0, x, 5) == 1.0 + 0.0j


def test_jacobi_anger_point():
    got = bessel.jacobi_anger_partial(5.0, 1.3, 40)
    want = complex(mp.e ** (1j * 5 * mp.sin(mp.mpf("1.3"))))
    assert abs(got - want) <= 1e-10


def test_jacobi_anger_grid_w10():
    xs = np.linspace(-math.pi, math.pi, 100)
    k = 10 + 30
    worst = max(abs(bessel.jacobi_anger_partial(10.0, float(x), k)
                    - np.exp(1j * 10.0 * math.sin(x))) for x in xs)
    assert worst <= 1e-8


def test_jacobi_anger_tail_is_monotone_where_resolvable():
    # error at K+10 below error at K, tested where errors sit above the
    # noise floor
    x = 0.9
    w = 10.0
    exact = np.exp(1j * w * math.sin(x))
    errs = [abs(bessel.jacobi_anger_partial(w, x, k) - exact)
            for k in (12, 22, 32)]
    assert errs[1] <= errs[0]
    assert errs[2] <= errs[1] + 1e-15


def test_parseval_partial_values():
    assert bessel.parseval_partial(0.0, 10) == 0.0
    assert abs(bessel.parseval_partial(1.0, 30) - 0.5) <= 1e-10
    assert abs(bessel.parseval_partial(8.0, 60) - 32.0) <= 1e-8


def test_parseval_partial_monotone_bounded():
    w = 6.0
    prev = 0.0
    for k in range(1, 50):
        cur = bessel.parseval_partial(w, k)
        assert cur >= prev - 1e-15
        assert cur <= 0.5 * w * w + 1e-12
        prev = cur


# ---------------------------------------------------------------------------
# zeros

def test_j0_zeros_are_roots_and_spaced():
    for m in (1, 2, 3, 10, 50, 137):
        z = bessel.j0_zero(m)
        assert abs(bessel.j0(z)) <= 1e-12
    assert bessel.j0_zero(1) == pytest.approx(2.404825557695773, abs=1e-12)
    assert bessel.j0_zero(2) == pytest.approx(5.520078110286311, abs=1e-12)
    # interlacing spacing approaches pi
    diffs = [bessel.j0_zero(m + 1) - bessel.j0_zero(m) for m in range(60, 64)]
    assert all(abs(d - math.pi) < 1e-3 for d in diffs)


def test_j0_zero_index_validation():
    with pytest.raises(ValueError):
        bessel.j0_zero(0)


def test_j0_zero_cache_concurrent_growth():
    # the cache only grows; hammering it from threads must stay consistent
    from concurrent.futures import ThreadPoolExecutor
    ms = list(range(1, 300)) * 4
    with ThreadPoolExecutor(max_workers=8) as ex:
        got = list(ex.map(bessel.j0_zero, ms))
    want = [bessel.j0_zero(m) for m in ms]
    assert got == want
