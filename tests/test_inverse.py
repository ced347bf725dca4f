"""Inverse-problem tests against the two worked closed forms.

Gaussian target: k(t) = e^{-t^2/2},            f(u) = sqrt(-2 ln u)
Cauchy target:   k(t) = sqrt(pi)/sqrt(2t^2+pi), f(u) = sqrt(pi/2) sqrt(1-u^2)/u
"""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

from sinelaw import inverse
from sinelaw.errors import (BracketError, ConvergenceError,
                             ModelViolationError)
from sinelaw.inverse import (CharFn, TabulatedMonotone, check_L, invert_k,
                             k_psi, solve_inverse)
from sinelaw.limitlaw import limit_char_fn
from sinelaw.quadrature import QuadConfig
from sinelaw.transforms import Decay, hankel0

A = math.sqrt(math.pi / 2.0)


def psi_gauss():
    return CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                  decay=Decay("gaussian", 1.0),
                  closed_form_hankel=lambda u: math.exp(-0.5 * u * u),
                  name="gaussian")


def psi_cauchy():
    return CharFn(eval=lambda t: np.exp(-A * np.abs(t)),
                  decay=Decay("exponential", A),
                  closed_form_hankel=lambda u: A / (u * u + math.pi / 2.0) ** 1.5,
                  name="cauchy")


def k_gauss_exact(t):
    return math.exp(-0.5 * t * t)


def k_cauchy_exact(t):
    return math.sqrt(math.pi) / math.sqrt(2.0 * t * t + math.pi)


def f_gauss_exact(u):
    return math.sqrt(-2.0 * math.log(u))


def f_cauchy_exact(u):
    return A * math.sqrt(1.0 - u * u) / u


# ---------------------------------------------------------------------------
# check_L

def test_check_l_gaussian_all_pass():
    rep = check_L(psi_gauss())
    assert rep.passed
    assert not rep.warnings


def test_check_l_cauchy_flags_origin_kink():
    rep = check_L(psi_cauchy())
    assert rep.passed  # integrability and shape conditions hold
    assert any("t=0" in w for w in rep.warnings)


def test_check_l_rejects_bad_normalization():
    bad = CharFn(eval=lambda t: 2.0 * np.exp(-np.square(t)),
                 decay=Decay("gaussian", 1.0), name="twice")
    rep = check_L(bad)
    assert not rep.hard["psi(0)=1"]
    assert not rep.passed
    with pytest.raises(ModelViolationError):
        solve_inverse(bad)


def test_check_l_rejects_slow_algebraic_tail():
    slow = CharFn(eval=lambda t: 1.0 / (1.0 + np.square(t)),
                  decay=Decay("algebraic", 2.0), name="lorentz")
    rep = check_L(slow)
    assert not rep.hard["t psi in L1"]


def test_check_l_flags_oddness():
    skew = CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)) * (1 + 0.01 * np.tanh(t)),
                  decay=Decay("gaussian", 1.0), name="skewed")
    rep = check_L(skew)
    assert not rep.hard["even"]


# ---------------------------------------------------------------------------
# k_psi

@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_k_gaussian_closed_form(t):
    assert k_psi(psi_gauss(), t) == pytest.approx(k_gauss_exact(t), abs=1e-8)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_k_cauchy_closed_form(t):
    assert k_psi(psi_cauchy(), t) == pytest.approx(k_cauchy_exact(t), abs=1e-8)


def test_k_at_zero_exactly_one():
    assert k_psi(psi_gauss(), 0.0) == 1.0
    assert k_psi(psi_cauchy(), 0.0) == 1.0


def test_k_strictly_decreasing_and_in_unit_interval():
    for psi, kex in [(psi_gauss(), k_gauss_exact),
                     (psi_cauchy(), k_cauchy_exact)]:
        ts = np.linspace(0.0, 6.0, 61)
        ks = [k_psi(psi, float(t)) for t in ts]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        assert all(0.0 < k <= 1.0 for k in ks)


@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_k_continuous_and_non_increasing_across_leaf_edges(make_psi):
    # inside a leaf k integrates the leaf's quadratic; at its right edge
    # it switches to the stored cumulative sum, and the two must agree
    kp = inverse.KPsi(make_psi(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    edges = np.array(kp._edges[1:-1])
    left = np.array([kp.k(float(np.nextafter(e, 0.0))) for e in edges])
    at = np.array([kp.k(float(e)) for e in edges])
    assert np.all(left >= at)
    assert np.max(left - at) <= 1e-15


def test_k_array_matches_scalar_calls_bitwise():
    kp = inverse.KPsi(psi_cauchy(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    edges = np.array(kp._edges)
    ts = np.concatenate([edges, np.nextafter(edges[1:], 0.0),
                         np.linspace(0.0, 30.0, 301)])
    batch = kp.k(ts)
    single = [kp.k(float(t)) for t in ts]
    assert all(isinstance(k, float) for k in single)
    assert np.array_equal(batch, np.array(single))
    assert np.array_equal(kp.k(ts.reshape(3, -1)), batch.reshape(3, -1))
    assert kp.k(0.0) == 1.0
    with pytest.raises(ValueError):
        kp.k(np.array([1.0, -1.0]))


def test_k_beyond_the_cap_is_the_value_at_the_table_end():
    kp = inverse.KPsi(psi_gauss(), use_closed_form=True)
    end = kp.k(2e8)
    assert kp._edges[-1] < 2e8
    assert end == kp.k(kp._edges[-1])
    assert np.array_equal(kp.k(np.array([1e12, math.inf])), [end, end])


def test_k_is_clamped_at_zero_in_the_tail():
    # 1 - cum dips to about -1e-12 here, within the table's absolute
    # tolerance, on both paths
    for kp, t in [(inverse.KPsi(psi_gauss(), use_closed_form=True), 40.0),
                  (inverse.KPsi(psi_gauss()), 12.0)]:
        ts = np.linspace(0.0, t, 401)
        ks = kp.k(ts)
        assert ks.min() == 0.0 and kp.k(t) == 0.0
        assert np.all(np.diff(ks) <= 0.0)
    assert k_psi(psi_gauss(), 40.0, use_closed_form=True) == 0.0


def _depth_first_table(psi, cfg, t0):
    """Reference KPsi table over [0, t0]: the 48 initial spans grown
    depth-first, one scalar hankel0 call per new u. Returns the leaf
    edges, the cumulative integrals at them and the m values."""
    k_tol = max(cfg.abs_tol, 1e-11)
    g = psi.as_real_function()
    mv = {0.0: 0.0}

    def m(u):
        if u not in mv:
            target = k_tol * 0.02 / (1.0 + u) ** 2
            hcfg = QuadConfig(abs_tol=target, rel_tol=1e-9,
                              truncation_tail_tol=max(target * 0.05, 1e-300),
                              max_panels=cfg.max_panels)
            try:
                h = hankel0(g, u, hcfg)
            except ConvergenceError as exc:
                assert exc.error_bound <= 5 * target
                h = exc.best
            mv[u] = u * h
        return mv[u]

    edges, cum = [0.0], [0.0]

    def grow(a, b, depth):
        mid = 0.5 * (a + b)
        q1, q2 = 0.5 * (a + mid), 0.5 * (mid + b)
        fa, fm, fb, f1, f2 = m(a), m(mid), m(b), m(q1), m(q2)
        simp = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        s2 = (mid - a) / 6.0 * (fa + 4.0 * f1 + fm) + \
            (b - mid) / 6.0 * (fm + 4.0 * f2 + fb)
        if abs(simp - s2) / 15.0 <= 0.04 * k_tol * (b - a) / (1.0 + a) \
                or depth >= 24:
            for lo, q, hi in ((a, q1, mid), (mid, q2, b)):
                edges.append(hi)
                cum.append(cum[-1] + (hi - lo) / 6.0 * (mv[lo] + 4.0 * mv[q]
                                                        + mv[hi]))
        else:
            grow(a, mid, depth + 1)
            grow(mid, b, depth + 1)

    for i in range(48):
        grow(i * t0 / 48.0, (i + 1) * t0 / 48.0, 0)
    return edges, cum, mv


@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_kpsi_table_equals_depth_first_reference_bitwise(make_psi):
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    kp = inverse.KPsi(make_psi(), cfg)
    d = kp.psi.decay
    t0 = 6.0 * d.scale if d.kind == "gaussian" else 8.0 / d.scale
    edges, cum, mv = _depth_first_table(make_psi(), cfg, t0)
    assert kp._edges == edges
    assert kp._cum == cum
    assert kp._mvals == mv
    assert kp._h0_calls == len(mv) - 1


def test_kpsi_h0_calls_pinned():
    # the inverse workload's table: the initial range, then one ladder step
    kp = inverse.KPsi(psi_gauss(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    kp.ensure(8.0)
    assert kp._h0_calls == 584


def test_kpsi_one_ensure_equals_stepwise_growth():
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    once = inverse.KPsi(psi_gauss(), cfg)
    once.ensure(60.0)
    steps = inverse.KPsi(psi_gauss(), cfg)
    for t in (7.0, 9.5, 15.0, 22.0, 40.0, 60.0):
        steps.k(t)
    assert (once._edges, once._cum, once._mvals) == \
        (steps._edges, steps._cum, steps._mvals)
    assert once._h0_calls == steps._h0_calls


def test_kpsi_model_violation_appends_no_leaves():
    # H0 turns negative past u = 5 pi / 2, beyond the initial range [0, 6]
    late = CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                  decay=Decay("gaussian", 1.0),
                  closed_form_hankel=lambda u: math.cos(u / 5.0),
                  name="late")
    kp = inverse.KPsi(late, use_closed_form=True)
    table = (list(kp._edges), list(kp._mids), list(kp._panel_int),
             list(kp._cum))
    k5 = kp.k(5.0)
    for _ in range(2):
        with pytest.raises(ModelViolationError):
            kp.k(9.0)
        assert (kp._edges, kp._mids, kp._panel_int, kp._cum) == table
    assert kp.k(5.0) == k5


def test_k_closed_form_vs_numeric_hankel():
    for psi in (psi_gauss(), psi_cauchy()):
        for t in (0.5, 1.0, 2.0):
            num = k_psi(psi, t, use_closed_form=False)
            cf = k_psi(psi, t, use_closed_form=True)
            assert abs(num - cf) <= 1e-7


def test_k_rejects_negative_transform_region():
    # psi whose H0 goes negative: a rectangle-ish characteristic shape;
    # use sin-like oscillating "hankel" via the closed-form hook to make
    # the violation deterministic
    trap = CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                  decay=Decay("gaussian", 1.0),
                  closed_form_hankel=lambda u: math.cos(3.0 * u),
                  name="oscillating")
    with pytest.raises(ModelViolationError):
        k_psi(trap, 2.0, use_closed_form=True)


def test_k_domain_errors():
    with pytest.raises(ValueError):
        k_psi(psi_gauss(), -1.0)
    with pytest.raises(ValueError):
        k_psi(psi_gauss(), math.inf)


# ---------------------------------------------------------------------------
# invert_k

@pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
def test_invert_gaussian(u):
    assert invert_k(psi_gauss(), u) == pytest.approx(f_gauss_exact(u), abs=1e-6)


@pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
def test_invert_cauchy(u):
    assert invert_k(psi_cauchy(), u) == pytest.approx(f_cauchy_exact(u), abs=1e-6)


def test_invert_round_trip():
    psi = psi_gauss()
    u = k_psi(psi, 1.7)
    assert invert_k(psi, u) == pytest.approx(1.7, abs=1e-8)


@pytest.mark.filterwarnings("ignore:heuristic")
def test_invert_round_trip_log_grid():
    # k(invert(u)) = u within 2 ulps of 1 wherever invert is finite; it
    # is inf only below the attainable floor: 100 ulps of 1 (gaussian),
    # k at t = 2^26, the last doubling below the 1e8 cap (cauchy, 1.87e-8)
    us = np.geomspace(1e-16, 1.0 - 1e-12, 200)
    for psi, floor in ((psi_gauss(), 2.3e-14), (psi_cauchy(), 1.9e-8)):
        kp = inverse._get_kpsi(psi, QuadConfig())
        t = kp.invert(us)
        assert np.all(np.isfinite(t[us >= floor]))
        fin = np.isfinite(t)
        assert np.max(np.abs(kp.k(t[fin]) - us[fin])) <= 4.5e-16


def test_invert_domain():
    with pytest.raises(ValueError):
        invert_k(psi_gauss(), 0.0)
    with pytest.raises(ValueError):
        invert_k(psi_gauss(), 1.0)


def test_invert_below_attainable_range():
    # gaussian k reaches 1e-9 near t = 6.4, but 1e-320 is beyond any
    # bracket at working precision
    with pytest.raises(BracketError):
        invert_k(psi_gauss(), 1e-320)
    with pytest.raises(BracketError):
        invert_k(psi_gauss(), np.array([0.5, 1e-320]))


def _bisect_k(psi, u):
    """Reference inversion: bracket by doubling, then bisect k_psi down to
    adjacent doubles."""
    hi = 1.0
    while k_psi(psi, hi, use_closed_form=True) > u:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if k_psi(psi, mid, use_closed_form=True) > u:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_invert_batch_matches_reference_bisection(make_psi):
    psi = make_psi()
    us = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    got = invert_k(psi, us, use_closed_form=True)
    want = np.array([_bisect_k(psi, float(u)) for u in us])
    assert np.max(np.abs(got - want) / (1.0 + want)) <= 1e-12


def test_invert_scalar_and_array_calls_agree_bitwise():
    psi = psi_cauchy()
    us = np.concatenate([np.geomspace(1e-4, 0.5, 40),
                         1.0 - np.geomspace(1e-4, 0.5, 40)])
    batch = invert_k(psi, us, use_closed_form=True)
    single = [invert_k(psi, float(u), use_closed_form=True) for u in us]
    assert all(isinstance(t, float) for t in single)
    assert np.array_equal(batch, np.array(single))
    assert np.array_equal(invert_k(psi, us[::-1], use_closed_form=True),
                          batch[::-1])


def test_kpsi_built_once_under_concurrent_first_use(monkeypatch):
    built = []

    class CountingKPsi(inverse.KPsi):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(inverse, "KPsi", CountingKPsi)
    psi = psi_gauss()
    ts = (0.5, 1.0, 2.0)
    start = threading.Barrier(8)
    results = [None] * 8

    def worker(n):
        start.wait(timeout=30)
        results[n] = [k_psi(psi, t, use_closed_form=True) for t in ts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(built) == 1
    assert all(r == results[0] for r in results)
    assert results[0] == pytest.approx([k_gauss_exact(t) for t in ts],
                                       abs=1e-8)


# ---------------------------------------------------------------------------
# TabulatedMonotone

def test_tabulated_monotone_shape_checks():
    with pytest.raises(ValueError):
        TabulatedMonotone([0.0, 1.0, 2.0], [1.0, 0.5, 0.6])
    with pytest.raises(ValueError):
        TabulatedMonotone([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        TabulatedMonotone([0.1, 1.0, 2.0], [1.0, 0.5, 0.2])


def _bisect_70_sweeps(tab, y):
    """Reference inversion: 70 bisection sweeps inside each located cell."""
    idx = len(tab.values) - 1 - np.searchsorted(tab.values[::-1], y,
                                                side="left")
    idx = np.clip(idx, 0, len(tab.grid) - 2)
    lo, hi = tab.grid[idx].copy(), tab.grid[idx + 1].copy()
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        above = tab.eval(mid) > y
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi), idx


@pytest.mark.parametrize("solved", ["solved_gauss", "solved_cauchy"])
def test_invert_array_matches_bisection_inside_cells(solved, request):
    # a table of k through invert_k nodes (f.eval is invert_k), packed
    # geometrically toward both ends of [1e-4, 1 - 1e-4]; nearer 1 the
    # slope of k vanishes and no inversion in double precision is
    # defined to 1e-14
    f = request.getfixturevalue(solved)
    us = np.unique(np.concatenate([
        np.geomspace(1e-4, 0.5, 64, endpoint=False),
        1.0 - np.geomspace(1e-4, 0.5, 65), np.linspace(0.02, 0.98, 64)]))
    tab = TabulatedMonotone(np.concatenate([[0.0], f.eval(us)[::-1]]),
                            np.concatenate([[1.0], us[::-1]]))
    bottom, top = us[0], us[-1]
    ys = np.concatenate([np.linspace(bottom, top, 2000),
                         np.geomspace(bottom, 0.01, 200),
                         1.0 - np.geomspace(1e-4, 0.01, 200), us])
    got = tab.invert_array(ys)
    want, idx = _bisect_70_sweeps(tab, ys)
    assert np.max(np.abs(got - want) / (1.0 + want)) <= 1e-14
    assert np.all((got >= tab.grid[idx]) & (got <= tab.grid[idx + 1]))


def test_tabulated_monotone_stays_in_cell_and_inverts():
    t = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    k = np.exp(-0.5 * t * t)
    k[0] = 1.0
    tab = TabulatedMonotone(t, k)
    xs = np.linspace(0.0, 4.0, 200)
    vals = tab.eval(xs)
    # monotone scheme: interpolant bounded by neighbouring node values
    for x, v in zip(xs, vals):
        i = np.searchsorted(t, x, side="right") - 1
        i = min(max(i, 0), len(t) - 2)
        assert k[i + 1] - 1e-12 <= v <= k[i] + 1e-12
    for y in (0.9, 0.5, 0.2, 0.05):
        x = tab.invert(y)
        assert tab.eval(x) == pytest.approx(y, abs=1e-10)


# ---------------------------------------------------------------------------
# solve_inverse

@pytest.fixture(scope="module")
def solved_gauss():
    return solve_inverse(psi_gauss())


@pytest.fixture(scope="module")
def solved_cauchy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_inverse(psi_cauchy())


def _max_rel_error(f, exact):
    # the u grid of the CLI's f_table.csv
    us = np.linspace(1e-4, 1.0 - 1e-4, 2001)
    want = np.array([exact(u) for u in us])
    return np.max(np.abs(f.eval(us) - want) / (1.0 + want))


def test_solved_gaussian_matches_closed_form(solved_gauss):
    assert _max_rel_error(solved_gauss, f_gauss_exact) <= 1e-6


def test_solved_cauchy_matches_closed_form(solved_cauchy):
    assert _max_rel_error(solved_cauchy, f_cauchy_exact) <= 1e-6


def test_solved_off_node_fidelity(solved_gauss):
    rng = np.random.default_rng(3)
    psi = psi_gauss()
    us = rng.uniform(2e-4, 1 - 2e-4, 40)
    assert np.array_equal(solved_gauss.eval(us), invert_k(psi, us))
    for u in us:
        assert solved_gauss.eval(float(u)) == invert_k(psi, float(u))


def test_solved_is_strictly_decreasing(solved_cauchy):
    us = np.linspace(1e-4, 1.0 - 1e-4, 1500)
    vals = solved_cauchy.eval(us)
    assert np.all(np.diff(vals) < 0)


def test_solved_tail_fallback_is_direct(solved_cauchy):
    # deep in the tail, where f diverges like 1/u
    u = 2e-5
    want = f_cauchy_exact(u)
    got = solved_cauchy.eval(u)
    assert got == pytest.approx(want, rel=1e-6)


def test_solved_eval_inf_only_below_attainable_floor(solved_gauss):
    # gaussian k is representable down to 100 ulp of 1 (2.2e-14); below
    # that f gives inf, which the sampler resamples
    us = np.array([0.5, 1e-320, 3e-5, 1e-15, 1e-10, 1.0 - 1e-6, 1e-4])
    got = solved_gauss.eval(us)
    assert np.array_equal(np.isinf(got), us < 2.2e-14)
    assert np.all(np.isfinite(got[us >= 2.2e-14]))
    # at u = 1e-10 the table's absolute error in k (~1e-12) is already a
    # relative error of 1e-2 in u, so the closed form is checked above 1e-5
    near = us >= 1e-5
    want = np.array([f_gauss_exact(u) for u in us[near]])
    assert np.all(np.abs(got[near] - want) <= 1e-5 * (1.0 + want))


def test_solved_inverse_roundtrip(solved_gauss):
    for u in (0.01, 0.2, 0.8, 0.99):
        assert solved_gauss.inverse(solved_gauss.eval(u)) == pytest.approx(
            u, abs=1e-10)


def test_solved_epsilon_and_metadata(solved_gauss):
    assert solved_gauss.epsilon_f == -1
    assert solved_gauss.f_id.startswith("kpsi_inverse:")
    assert solved_gauss.char_decay is not None


# ---------------------------------------------------------------------------
# pipeline closure: charfn of the solved f reproduces psi

@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_closure_gaussian(solved_gauss, t):
    cfg = QuadConfig(abs_tol=2e-5, rel_tol=2e-5, max_panels=200_000)
    assert limit_char_fn(solved_gauss, t, cfg) == pytest.approx(
        math.exp(-0.5 * t * t), abs=1e-4)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_closure_cauchy(solved_cauchy, t):
    cfg = QuadConfig(abs_tol=2e-5, rel_tol=2e-5, max_panels=200_000)
    assert limit_char_fn(solved_cauchy, t, cfg) == pytest.approx(
        math.exp(-A * t), abs=1e-4)


def test_solved_f_through_sampler_and_ks(solved_cauchy):
    # the full inverse pipeline as one property: solve, sample, verify
    from sinelaw.sampler import sample_vn
    from sinelaw.verify import ks_statistic, target_library
    batch = sample_vn(solved_cauchy, 1000, 10000, 42)
    ks = ks_statistic(batch, target_library("cauchy"))
    assert ks <= 0.03
