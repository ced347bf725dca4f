"""Checks of the Gauss-Kronrod constants and the adaptive/Euler drivers."""

import copy
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sinelaw.errors import ConvergenceError
from sinelaw.quadrature import (_EULER, QuadConfig, _gk_panels,
                                _integrate_rows, _lobe_sums, integrate)


def test_gk15_exact_for_monomials():
    # the 15-point Kronrod rule integrates degree <= 22 exactly; any typo
    # in the frozen nodes/weights breaks this immediately. One panel
    # [0, 1] per degree.
    deg = np.arange(23)
    v, _ = _gk_panels(lambda x, rows: x ** deg[rows, None], np.zeros(23),
                      np.ones(23), deg)
    assert v == pytest.approx(1.0 / (deg + 1), abs=5e-16)


def test_gk15_error_estimate_is_conservative():
    v, e = _gk_panels(lambda x, rows: np.sin(x), np.zeros(1), np.ones(1),
                      np.zeros(1, dtype=np.intp))
    true = 1.0 - math.cos(1.0)
    assert abs(v[0] - true) <= max(e[0], 1e-15)


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


def _unit_lobes(terms):
    # lobe m of problem p is [m, m + 1], where the integrand is the
    # constant terms[p][m]: the lobe integrals are the terms
    terms = np.array(terms, dtype=np.float64, ndmin=2)

    def f(x, p):
        return terms[p[:, None], np.floor(x).astype(np.intp)]

    def edges(p, m):
        return m.astype(np.float64), m + 1.0

    return f, edges


def test_euler_alternating_slow_series():
    # sum (-1)^m / (m+1) = ln 2; raw convergence is hopeless at 1e-10
    f, edges = _unit_lobes([(-1.0) ** m / (m + 1.0) for m in range(200)])
    v, e, k = _lobe_sums(f, edges, 1, 1e-14, 1e-12, 0.0, 200)
    assert v[0] == pytest.approx(math.log(2.0), abs=1e-10)
    assert e[0] >= abs(v[0] - math.log(2.0))
    assert k[0] < 60


def test_euler_alternating_fast_series_uses_raw_sum():
    # geometric decay: the raw partial sum is returned and is accurate,
    # with 40 times the last two terms as its bound
    terms = [(-0.25) ** m for m in range(100)]
    f, edges = _unit_lobes(terms)
    v, e, k = _lobe_sums(f, edges, 1, 1e-14, 1e-13, 0.0, 100)
    assert v[0] == pytest.approx(0.8, abs=1e-12)
    assert v[0] == sum(terms[:k[0]])
    assert e[0] >= 40.0 * (abs(terms[k[0] - 1]) + abs(terms[k[0] - 2]))


def test_euler_alternating_failure():
    # tolerance unreachable within the term budget: the sum comes back
    # with its last top and the bound inf, which every caller rejects
    f, edges = _unit_lobes([(-1.0) ** m / (m + 1.0) for m in range(12)])
    v, e, k = _lobe_sums(f, edges, 1, 1e-14, 1e-30, 0.0, 12)
    assert v[0] == pytest.approx(math.log(2.0), abs=1e-3)
    assert e[0] == math.inf and k[0] == 12


def _euler_reference(terms, errs, abs_tol, rel_tol):
    # the windowed binomial mean in plain Python floats, term by term and
    # summed in _lobe_sums' order: (value, bound, terms used). The top
    # after term m adds, left to right, the weights times the last 61
    # partial sums, with 0 for the partial sums before the first.
    sums, err, top, inc, size = [0.0] * 60, 0.0, 0.0, 0.0, 0.0
    for m, (t, e) in enumerate(zip(terms, errs)):
        sums.append(sums[-1] + t)
        err += e
        d = min(m, 60)
        weights = [0.0] * (60 - d) + [math.comb(d, i) / 2 ** d
                                      for i in range(d + 1)]
        new_top = weights[0] * sums[-61]
        for w, s in zip(weights[1:], sums[-60:]):
            new_top += w * s
        new_inc = abs(new_top - top)
        small = max(abs_tol, rel_tol * abs(sums[-1])) / 80.0
        if m >= 6 and abs(t) <= small and size <= small:
            # two raw terms in a row within 1/80 of the tolerance
            return sums[-1], 10.0 * (4.0 * (abs(t) + size)) + err, m + 1
        if m >= 6 and 10.0 * max(new_inc, inc) <= max(
                abs_tol, rel_tol * abs(new_top)):
            # 10 times the larger of the last two increments within
            # tolerance
            return new_top, 10.0 * max(new_inc, inc) + err, m + 1
        top, inc, size = new_top, new_inc, abs(t)
    return top, math.inf, len(terms)


def _bits(x):
    # a float's bits, so that NaN compares equal to itself
    return struct.pack("<d", x)


_TERMS = st.floats(-1.0, 1.0, allow_nan=False)
_IRREGULAR = [math.sin(k * k) for k in range(70)]


@given(st.lists(st.tuples(st.lists(_TERMS, max_size=70),
                          st.floats(-0.95, -0.05), st.floats(1e-8, 1.0)),
                min_size=1, max_size=4),
       st.lists(st.sampled_from([1e-6, 1e-9, 1e-12, 1e-300]), min_size=4,
                max_size=4),
       st.sampled_from([0.0, 1e-11]))
@settings(max_examples=150, deadline=None)
# past 61 terms: an irregular head of 70 terms, then a stop at term 78
# and, at an unreachable tolerance, an open sum at max_terms
@example([(_IRREGULAR, -0.5, 1e-8)] * 2, [1e-9, 1e-300] * 2, 0.0)
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
    tols = np.array(tols[:len(seqs)])
    f, edges = _unit_lobes(seqs)
    # each lobe is one GK15 panel at panel tolerance 1, whose integral and
    # error _integrate_rows gives the same bits in any batch
    m = np.tile(np.arange(n_terms), len(seqs))
    p = np.repeat(np.arange(len(seqs)), n_terms)
    lobe, lobe_err, _ = _integrate_rows(lambda x, rows: f(x, p[rows]),
                                        m, m + 1.0, 1.0, 1e-13, 1)
    lobe, lobe_err = lobe.reshape(-1, n_terms), lobe_err.reshape(-1, n_terms)
    batch = _lobe_sums(f, edges, len(seqs), 1.0, tols, rel_tol, n_terms)
    for i, tol in enumerate(tols):
        one = _lobe_sums(lambda x, q, i=i: f(x, q + i), edges, 1, 1.0, tol,
                         rel_tol, n_terms)
        want = _euler_reference(lobe[i].tolist(), lobe_err[i].tolist(),
                                float(tol), rel_tol)
        assert [_bits(x[0]) for x in one] == [_bits(x) for x in want]
        assert [_bits(x[i]) for x in batch] == [_bits(x) for x in want]


def test_lobe_sums_unsettled_at_max_terms():
    # an unreachable tail tolerance: after max_terms lobes the sum comes
    # back open, with its Euler top and the bound inf
    def f(x, p):
        return np.sin(x) / (x + 1.0)

    v, e, k = _lobe_sums(f, lambda p, m: (m * np.pi, (m + 1) * np.pi), 2,
                         1e-14, 1e-300, 0.0, 20)
    assert np.all(v == pytest.approx(0.6214496242358134, abs=1e-3))
    assert np.all(e == math.inf) and np.all(k == 20)


def test_quadconfig_validation():
    for bad in (dict(abs_tol=0.0), dict(rel_tol=-1e-9),
                dict(abs_tol=math.nan), dict(abs_tol=math.inf),
                dict(rel_tol=math.inf), dict(max_panels=0)):
        with pytest.raises(ValueError):
            QuadConfig(**bad)
    assert vars(QuadConfig()) == dict(abs_tol=1e-10, rel_tol=1e-10,
                                      max_panels=10_000)


def test_quadconfig_is_an_immutable_value():
    # equal configs are one key of the k table cache; positional and
    # keyword construction name the same fields, in the README's order
    a, b = QuadConfig(), QuadConfig()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    c = QuadConfig(1e-8, 1e-9, 200)
    assert c == QuadConfig(abs_tol=1e-8, rel_tol=1e-9, max_panels=200)
    assert (c.abs_tol, c.rel_tol, c.max_panels) == (1e-8, 1e-9, 200)
    assert c != a and c != (1e-8, 1e-9, 200)
    for field in ("abs_tol", "max_panels", "other"):
        with pytest.raises(AttributeError):
            setattr(a, field, 1.0)
    assert a == QuadConfig()
    assert copy.copy(c) == c and pickle.loads(pickle.dumps(c)) == c


def test_euler_weights_are_the_binomials_correctly_rounded():
    want = np.array([[0.0] * (60 - d) + [math.comb(d, i) / 2 ** d
                                         for i in range(d + 1)]
                     for d in range(61)])
    assert _EULER.dtype == np.float64
    assert np.array_equal(_EULER.view(np.int64), want.view(np.int64))
