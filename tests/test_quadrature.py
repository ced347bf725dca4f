"""Checks of the Gauss-Kronrod constants and the adaptive/Euler drivers."""

import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sinelaw.errors import ConvergenceError
from sinelaw.quadrature import (QuadConfig, _Euler, _integrate_rows,
                                _lobe_sums, euler_alternating, gk15,
                                integrate)


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
    with pytest.raises(ConvergenceError, match="after 1 panels") as info:
        integrate(step, 1.0, b, 1e-300, rel_tol=0.0)
    v, e = info.value.best, info.value.error_bound
    assert e > 0.0 and e >= abs(v - (b - 1.0))


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


def _euler_reference(terms, abs_tol, rel_tol, min_terms=7):
    # the iterated-mean recurrence in plain Python floats, term by term:
    # (value, increment, terms) or ("raise", best, error_bound)
    row, total, prev, prev_term, prev_inc = [], 0.0, None, math.inf, math.inf
    for m, t in enumerate(terms):
        total += t
        tol_now = max(abs_tol, rel_tol * abs(total))
        if (m + 1 >= min_terms and abs(t) <= 0.25 * tol_now
                and prev_term <= 0.25 * tol_now):
            return total, 4.0 * (abs(t) + prev_term), m + 1
        prev_term = abs(t)
        row.append(total)
        for i in range(len(row) - 2, -1, -1):
            row[i] = 0.5 * (row[i] + row[i + 1])
        if prev is not None:
            # two increments in a row within tolerance
            inc = abs(row[0] - prev)
            if (m + 1 >= min_terms
                    and inc <= max(abs_tol, rel_tol * abs(row[0]))
                    and prev_inc <= max(abs_tol, rel_tol * abs(prev))):
                return row[0], inc, m + 1
            prev_inc = inc
        prev = row[0]
        if len(row) > 60:
            row.pop()
    return "raise", row[0], prev_inc


def _bits(x):
    # a float's bits, so that NaN compares equal to itself
    return x if isinstance(x, (str, int)) else struct.pack("<d", x)


def _euler_batch(seqs, abs_tol, rel_tol):
    # the sequences through one _Euler, closing each where it settles, as
    # _lobe_sums does with its lobes
    state = _Euler(np.array(abs_tol), rel_tol)
    out = [None] * len(seqs)
    todo = np.arange(len(seqs))
    for m in range(len(seqs[0])):
        if not todo.size:
            break
        done, val, inc = state.push(np.array([seqs[q][m] for q in todo]))
        for i in np.flatnonzero(done):
            out[todo[i]] = float(val[i]), float(inc[i]), m + 1
        todo = todo[~done]
        state.keep(~done)
    for i, q in enumerate(todo):
        one = copy.copy(state)
        one.keep(np.arange(todo.size) == i)
        exc = one.failure()
        out[q] = "raise", exc.best, exc.error_bound
    return out


_TERMS = st.floats(-1.0, 1.0, allow_nan=False)
_IRREGULAR = [math.sin(k * k) for k in range(70)]


@given(st.lists(st.tuples(st.lists(_TERMS, max_size=70),
                          st.floats(-0.95, -0.05), st.floats(1e-8, 1.0)),
                min_size=1, max_size=4),
       st.lists(st.sampled_from([1e-6, 1e-9, 1e-12, 1e-300]), min_size=4,
                max_size=4),
       st.sampled_from([0.0, 1e-11]))
@settings(max_examples=150, deadline=None)
# past the 61-row cap: an irregular head of 70 terms, then a stop at
# term 78 and, at an unreachable tolerance, ConvergenceError at max_terms
@example([(_IRREGULAR, -0.5, 1e-8)] * 2, [1e-9, 1e-300] * 2, 1e-11)
# the raw-terms exit
@example([([], -0.25, 1.0)], [1e-13] * 4, 0.0)
# a NaN lobe: the total is NaN, Python's max keeps abs_tol, and the raw
# exit returns the NaN sum
@example([([0.5, math.nan], -0.25, 1e-3)], [1e-6] * 4, 1e-11)
def test_euler_batch_equals_scalar_bitwise(specs, tols, rel_tol):
    # a random head of terms, then a geometric alternating tail; every
    # sum gets the same bits alone, in a batch, and in plain Python
    n_terms = 120
    seqs = [head + [amp * ratio ** k for k in range(n_terms - len(head))]
            for head, ratio, amp in specs]
    tols = tols[:len(seqs)]
    batch = _euler_batch(seqs, tols, rel_tol)
    for seq, tol, got in zip(seqs, tols, batch):
        try:
            one = euler_alternating(seq.__getitem__, tol, rel_tol=rel_tol,
                                    max_terms=n_terms)
        except ConvergenceError as exc:
            one = "raise", exc.best, exc.error_bound
        want = _euler_reference(seq, tol, rel_tol)
        assert [_bits(x) for x in one] == [_bits(x) for x in want]
        assert [_bits(x) for x in got] == [_bits(x) for x in want]


def test_lobe_sums_raise_at_max_terms():
    # an unreachable tail tolerance: the sum gives up after max_terms
    # lobes with the Euler top attached
    def f(x, p):
        return np.sin(x) / (x + 1.0)

    with pytest.raises(ConvergenceError, match="in 20 terms") as ei:
        _lobe_sums(f, lambda p, m: (m * np.pi, (m + 1) * np.pi), 2, 1e-14,
                   1e-300, 0.0, 20)
    assert ei.value.best == pytest.approx(0.6214496242358134, abs=1e-3)


def test_quadconfig_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_panels=0)
    cfg = QuadConfig()
    assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-10
    assert cfg.max_panels == 10_000 and cfg.truncation_tail_tol == 1e-12
