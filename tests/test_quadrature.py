"""Checks of the Gauss-Kronrod constants and the adaptive/Euler drivers."""

import math

import numpy as np
import pytest

from sinelaw.errors import ConvergenceError
from sinelaw.quadrature import (QuadConfig, _integrate_rows, _lobe_sums,
                                euler_alternating, gk15, integrate)


def test_gk15_exact_for_monomials():
    # the 15-point Kronrod rule integrates degree <= 22 exactly; any typo
    # in the frozen nodes/weights breaks this immediately
    for deg in range(0, 23):
        v, _ = gk15(lambda x, d=deg: x ** d, 0.0, 1.0)
        assert v == pytest.approx(1.0 / (deg + 1), abs=5e-16)


def test_gk15_error_estimate_is_conservative():
    v, e = gk15(np.sin, 0.0, 1.0)
    true = 1.0 - math.cos(1.0)
    assert abs(v - true) <= max(e, 1e-15)


def test_integrate_smooth():
    v, e, n = integrate(lambda x: np.exp(-x * x), 0.0, 10.0, 1e-12)
    assert v == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
    assert e >= abs(v - math.sqrt(math.pi) / 2.0)


def test_integrate_integrable_singularity():
    v, e, n = integrate(lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)),
                        0.0, 1.0, 1e-9, max_panels=20000)
    assert v == pytest.approx(2.0, abs=1e-6)


def test_integrate_budget_exhaustion_raises_with_best():
    with pytest.raises(ConvergenceError) as ei:
        integrate(lambda x: np.cos(1000.0 * x), 0.0, 1.0, 1e-14, max_panels=3)
    assert ei.value.best is not None
    assert ei.value.error_bound is not None


def _oscillators(n=40, seed=3):
    # int_a^b cos(w x) e^{-x} dx, one (a, b, w) per row, with closed forms
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, n)
    b = a + rng.uniform(0.1, 5.0, n)
    w = rng.uniform(1.0, 60.0, n)
    z = complex(-1.0, 0.0) + 1j * w

    def f(x, rows):
        return np.cos(w[rows][:, None] * x) * np.exp(-x)

    exact = ((np.exp(z * b) - np.exp(z * a)) / z).real
    return f, a, b, exact


def test_integrate_rows_batch_equals_one_at_a_time():
    f, a, b, exact = _oscillators()
    cap = np.where(np.arange(a.size) % 3 == 0, 5, 1000)
    v, e, n = _integrate_rows(f, a, b, 1e-12, 1e-12, cap)
    assert np.all(n <= cap) and np.any(n == 5)
    for i in range(a.size):
        one = _integrate_rows(lambda x, rows, i=i: f(x, rows + i),
                              a[i:i + 1], b[i:i + 1], 1e-12, 1e-12, cap[i])
        assert (v[i], e[i], n[i]) == (one[0][0], one[1][0], one[2][0])
    # every bound covers the true error, capped rows included
    assert np.all(np.abs(v - exact) <= np.maximum(e, 1e-15))
    done = cap == 1000
    assert np.all(e[done] <= np.maximum(1e-12, 1e-12 * np.abs(v[done])))


def test_unsplittable_panel_keeps_its_error():
    # [1, 1 + ulp] cannot be split, and its nodes round to either side of
    # the step at 1, so the panel has an error estimate that must stay in
    # the bound
    def step(x):
        return (x >= 1.0).astype(float)

    b = float(np.nextafter(1.0, 2.0))
    v, e, n = integrate(step, 1.0, b, 1e-300, rel_tol=0.0,
                        raise_on_failure=False)
    assert n == 1
    assert e > 0.0 and e >= abs(v - (b - 1.0))
    with pytest.raises(ConvergenceError):
        integrate(step, 1.0, b, 1e-300, rel_tol=0.0)


def test_lobe_sums_batch_equals_one_at_a_time():
    # sum_m int_{m pi}^{(m+1) pi} sin(x) / (x + c) dx for several c
    c = np.array([0.5, 1.0, 3.0, 10.0])

    def f(x, p):
        return np.sin(x) / (x + c[p][:, None])

    def edges(p, m):
        return m * np.pi, (m + 1) * np.pi

    v, e, k = _lobe_sums(f, edges, c.size, 1e-14, 1e-12, 1e-11, 10_000)
    for i in range(c.size):
        one = _lobe_sums(lambda x, p, i=i: f(x, p + i), edges, 1, 1e-14,
                         1e-12, 1e-11, 10_000)
        assert (v[i], e[i], k[i]) == (one[0][0], one[1][0], one[2][0])
    # int_0^inf sin x / (x + 1) dx = Ci(1) sin 1 + (pi/2 - Si(1)) cos 1
    assert v[1] == pytest.approx(0.6214496242358134, abs=1e-10)
    assert e[1] >= abs(v[1] - 0.6214496242358134)


def test_euler_alternating_slow_series():
    # sum (-1)^m / (m+1) = ln 2; raw convergence is hopeless at 1e-10
    v, inc, terms = euler_alternating(lambda m: (-1.0) ** m / (m + 1.0),
                                      1e-12, max_terms=200)
    assert v == pytest.approx(math.log(2.0), abs=1e-10)
    assert terms < 60


def test_euler_alternating_fast_series_uses_raw_sum():
    # geometric decay: the raw partial sum is returned and is accurate
    v, inc, terms = euler_alternating(lambda m: (-0.25) ** m, 1e-13,
                                      max_terms=100)
    assert v == pytest.approx(0.8, abs=1e-12)


def test_euler_alternating_failure():
    # tolerance unreachable within the term budget
    with pytest.raises(ConvergenceError):
        euler_alternating(lambda m: (-1.0) ** m / (m + 1.0), 1e-30,
                          max_terms=12)


def test_quadconfig_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_panels=0)
    cfg = QuadConfig()
    assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-10
    assert cfg.max_panels == 10_000 and cfg.truncation_tail_tol == 1e-12
