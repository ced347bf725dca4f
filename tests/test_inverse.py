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
from sinelaw.quadrature import QuadConfig, integrate
from sinelaw.transforms import Decay

A = math.sqrt(math.pi / 2.0)


def psi_gauss():
    return CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                  decay=Decay("gaussian", 1.0), name="gaussian")


def psi_cauchy():
    return CharFn(eval=lambda t: np.exp(-A * np.abs(t)),
                  decay=Decay("exponential", A), name="cauchy")


# H0(psi) in closed form, for arrays of u
H0_EXACT = {"gaussian": lambda u: np.exp(-0.5 * np.square(u)),
            "cauchy": lambda u: A / (np.square(u) + math.pi / 2.0) ** 1.5}


class ExactKPsi(inverse.KPsi):
    """The k table of psi with m(u) = u h0(u) for a given h0, in place of
    the numerical transform: an exact m, or one no psi of the tests has."""

    def __init__(self, psi, h0=None):
        self.h0 = H0_EXACT[psi.name] if h0 is None else h0
        super().__init__(psi)

    def _m(self, u):
        return u * self.h0(u)


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


def _moments_one_by_one(psi, t_max):
    # the integrability entries of check_L, one adaptive integral per power
    hard, details = {}, {}
    d = psi.decay
    for label, power, p_needed in [("psi in L1", 0.0, 1.0),
                                   ("sqrt(t) psi in L1", 0.5, 1.5),
                                   ("t psi in L1", 1.0, 2.0)]:
        if d.kind == "algebraic" and d.scale <= p_needed:
            hard[label] = False
            details[label] = (f"algebraic decay p={d.scale} gives a "
                              f"divergent tail (needs p > {p_needed})")
            continue
        try:
            head, _, _ = integrate(
                lambda x, q=power: psi.eval_array(x) * np.power(
                    np.maximum(x, 1e-300), q),
                0.0, t_max, 1e-8, max_panels=4000)
        except ConvergenceError as exc:  # check_L takes the best estimate
            head = exc.best
        amp = abs(float(psi.eval(t_max))) / d.envelope(t_max)
        if d.kind == "gaussian":
            tail = amp * math.exp(-0.5 * (t_max / d.scale) ** 2) * d.scale * (
                t_max ** power + d.scale)
        elif d.kind == "exponential":
            tail = amp * math.exp(-d.scale * t_max) * (
                t_max ** power / d.scale + 1.0 / d.scale ** 2)
        else:
            tail = amp * t_max ** (power + 1.0 - d.scale) / (
                d.scale - power - 1.0)
        hard[label] = math.isfinite(head + tail)
        details[label] = f"int ~ {head + tail:.6g} (tail bound {tail:.2g})"
    return hard, details


@pytest.mark.parametrize("psi", [
    psi_gauss(), psi_cauchy(),
    CharFn(eval=lambda t: (1.0 + np.abs(t)) ** -3.0,
           decay=Decay("algebraic", 3.0), name="algebraic3"),
    CharFn(eval=lambda t: 1.0 / (1.0 + np.square(t)),
           decay=Decay("algebraic", 2.0), name="lorentz")])
def test_check_l_moments_in_one_call_match_one_by_one(psi):
    rep = check_L(psi)
    hard, details = _moments_one_by_one(
        psi, float(inverse._default_grid(psi)[-1]))
    assert {k: rep.hard[k] for k in hard} == hard
    assert {k: rep.details[k] for k in details} == details


@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_check_l_heads_in_three_rounds(monkeypatch, make_psi):
    # int_0^t_max t^p psi for p = 0, 1/2, 1, against the integrals over
    # (0, inf), whose tails past t_max lie far below the 1e-8 target; in
    # s = sqrt(t) no row has a corner to bisect, so three adaptive
    # rounds (GK15 calls) meet it
    from sinelaw import quadrature
    heads, rounds = [], []
    real_rows, real_panels = inverse._integrate_rows, quadrature._gk_panels

    def rows(*args):
        out = real_rows(*args)
        heads.append(out[0])
        return out

    def panels(*args):
        rounds.append(1)
        return real_panels(*args)

    monkeypatch.setattr(inverse, "_integrate_rows", rows)
    monkeypatch.setattr(quadrature, "_gk_panels", panels)
    psi = make_psi()
    assert check_L(psi).passed
    if psi.name == "gaussian":
        want = [math.sqrt(math.pi / 2.0), 2.0 ** -0.25 * math.gamma(0.75),
                1.0]
    else:
        want = [math.gamma(p + 1.0) / A ** (p + 1.0) for p in (0.0, 0.5, 1.0)]
    assert len(heads) == 1
    assert np.all(np.abs(heads[0] - want) <= 1e-8)
    assert len(rounds) <= 3


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
    # inside a piece k integrates the piece's polynomial; at its right
    # edge it switches to the stored k at the edge, and the two must agree
    kp = inverse.KPsi(make_psi(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    edges = kp._table[0][1:-1]
    left = np.array([kp.k(float(np.nextafter(e, 0.0))) for e in edges])
    at = np.array([kp.k(float(e)) for e in edges])
    assert np.all(left >= at)
    assert np.max(left - at) <= 1e-15


def test_k_array_matches_scalar_calls_bitwise():
    kp = inverse.KPsi(psi_cauchy(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    edges = kp._table[0]
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
    kp = ExactKPsi(psi_gauss())
    end = kp.k(2e8)
    assert kp._table[0][-1] < 2e8
    assert end == kp.k(kp._table[0][-1])
    assert np.array_equal(kp.k(np.array([1e12, math.inf])), [end, end])


def test_k_is_clamped_at_zero_in_the_tail():
    # an m whose integral passes 1 by 1e-12, within the table's absolute
    # tolerance: 1 minus the integral dips below 0, and k stops at 0;
    # with m from the numerical transform, k stays in [0, 1e-14] there
    psi = psi_gauss()
    over = ExactKPsi(psi, lambda u: (1.0 + 1e-12) * np.exp(-0.5 * u * u))
    for kp, t in [(over, 40.0), (inverse._get_kpsi(psi, QuadConfig()), 12.0)]:
        ts = np.linspace(0.0, t, 401)
        ks = kp.k(ts)
        assert ks.min() >= 0.0 and kp.k(t) <= 1e-14
        assert np.all(np.diff(ks) <= 0.0)
    assert over._table[1][-1] > 1.0 and over.k(40.0) == 0.0
    assert 0.0 <= k_psi(psi, 12.0) <= 1e-14


def _same_table(x, y):
    # the k part of two table snapshots, bit for bit
    return all(np.array_equal(p, q) for p, q in zip(x[:3], y[:3]))


def _fit_at(fit, u):
    # the fit's m at each u of an array, by the Clenshaw sum of its piece
    i = np.clip(np.searchsorted(fit[:, 0], u, side="right") - 1, 0,
                len(fit) - 1)
    lo, hi = fit[i, 0], fit[i, 1]
    return inverse._clenshaw(fit[i, 2:], (2.0 * u - lo - hi) / (hi - lo))


def _depth_first_table(kp, t0):
    """Reference KPsi table over [0, t0]: the four initial pieces of the
    fit halved depth-first, each piece's 17 H0 values in a call of their
    own, and the integral of m up to each edge as the sum of the pieces'
    Clenshaw-Curtis integrals, one at a time. Returns the edges, those
    integrals and the coefficients of m and of its integral from each
    left edge over s + 1."""
    edges, cum, pieces = [0.0], [0.0], []

    def grow(lo, hi, depth):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = kp._m(mid + half * inverse._CC)
        c = np.einsum("pj,jk->pk", v[None], inverse._CHEB)
        if np.abs(c[0, -2:]).max() <= 0.04 * kp.k_tol / (1.0 + lo) \
                or depth >= 24:
            edges.append(hi)
            whole = max(half * np.einsum("pk,k->p", c,
                                         inverse._CC_WEIGHTS)[0], 0.0)
            cum.append(cum[-1] + whole)
            pieces.append([c[0], half * np.einsum("pj,jk->pk", c,
                                                  inverse._ANTIDERIV)[0]])
        else:
            grow(lo, mid, depth + 1)
            grow(mid, hi, depth + 1)

    cuts = np.linspace(0.0, t0, 5)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        grow(lo, hi, 0)
    return edges, cum, np.array(pieces).reshape(-1, 2, 17)


def _t0(psi):
    d = psi.decay
    return 6.0 * d.scale if d.kind == "gaussian" else 8.0 / d.scale


@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_kpsi_table_equals_depth_first_reference_bitwise(make_psi):
    # the batched, breadth-first fit and its exact integrals against the
    # same fit built one piece at a time, with the same H0 values
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    kp = inverse.KPsi(make_psi(), cfg)
    calls = kp._h0_calls
    ref = _depth_first_table(kp, _t0(kp.psi))
    assert kp._h0_calls == 2 * calls
    assert _same_table(kp._table, ref)


def test_kpsi_h0_calls_pinned():
    # the inverse workload's table: the initial range, then one ladder
    # step; five Chebyshev pieces of 17 nodes, none halved
    kp = inverse.KPsi(psi_gauss(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    kp.ensure(8.0)
    assert kp._h0_calls == 85


def test_pipeline_table_keeps_its_initial_span():
    # the endpoint probe of solve_inverse and f.eval on the CLI's u grid:
    # every root lies inside the initial range [0, 6], so the table
    # grows no further than its 68 H0 values
    psi, cfg = psi_gauss(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    f = solve_inverse(psi, cfg)
    f.eval(np.linspace(1e-4, 1.0 - 1e-4, 2001))
    kp = inverse._get_kpsi(psi, cfg)
    assert kp._table[0][-1] == 6.0
    assert kp._h0_calls == 68


def test_invert_grows_the_table_along_the_ladder():
    # k(6) is about 1.5e-8, so the root of 1e-9 lies past the initial
    # range: the table grows as ensure grows it, and the u whose roots
    # it already covered keep their bits
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    kp = inverse.KPsi(psi_gauss(), cfg)
    us = np.linspace(0.01, 0.99, 50)
    before = kp.invert(us)
    t = kp.invert(np.concatenate([[1e-9], us]))
    ref = inverse.KPsi(psi_gauss(), cfg)
    ref.ensure(t[0])
    assert _same_table(kp._table, ref._table)
    assert kp._h0_calls == ref._h0_calls == 85
    assert np.array_equal(t[1:], before)
    assert t[0] > 6.0 and abs(kp.k(t[0]) - 1e-9) <= 1e-16


def test_invert_reaches_the_table_cap():
    # k is 1.87e-8 at 2^26 and 1.25e-8 at the 1e8 cap: a u between them
    # has its root on the table, which grows up to the cap and no
    # further; a u below k at the cap gives inf
    kp = ExactKPsi(psi_cauchy())
    us = np.array([1.5e-8, 1.3e-8, 1.2e-8])
    t = kp.invert(us)
    assert kp._table[0][-1] == 1e8
    assert t[:2] == pytest.approx([f_cauchy_exact(u) for u in us[:2]],
                                  rel=2e-3)
    assert np.all(np.abs(kp.k(t[:2]) - us[:2]) <= 1e-16)
    assert t[2] == math.inf


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_kpsi_fit_within_its_budget(make_psi, tol):
    # the fits of the initial range and of the first ladder step against
    # u H0(psi)(u) in closed form, within 0.04 k_tol / (1 + u), which is
    # below the budget 0.04 k_tol / (1 + left edge) of every piece
    psi = make_psi()
    kp = inverse.KPsi(psi, QuadConfig(abs_tol=tol, rel_tol=tol))
    t0 = _t0(psi)
    for cuts in (np.linspace(0.0, t0, 5), np.array([t0, 1.7 * t0])):
        u = np.linspace(cuts[0], cuts[-1], 4001)
        want = u * H0_EXACT[psi.name](u)
        assert np.all(np.abs(_fit_at(kp._fit(cuts), u) - want)
                      <= 0.04 * tol / (1.0 + u))


@pytest.mark.parametrize("factor", [4.9, 5.1])
def test_kpsi_fit_nodes_hold_the_h0_bound(monkeypatch, factor):
    # H0 bounds at factor times their targets past the initial range:
    # beyond 5 times, the growth there raises at a fit node and leaves
    # the table as it was
    real = inverse._transform_rows

    def inflated(kind, g, u, target, *args):
        h, err = real(kind, g, u, target, *args)
        return h, np.where(u > 6.0, factor * target, err)

    monkeypatch.setattr(inverse, "_transform_rows", inflated)
    kp = inverse.KPsi(psi_gauss(), QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    table = kp._table
    if factor > 5.0:
        with pytest.raises(ConvergenceError, match="hankel0"):
            kp.ensure(8.0)
        assert kp._table is table
    else:
        kp.ensure(8.0)
        assert kp._table[0][-1] > 8.0


def test_kpsi_fit_stops_where_h0_noise_stalls_it(monkeypatch):
    # m carries noise of 1e-9 that no halving resolves: the top
    # coefficients stop shrinking, and the fit raises at the third level
    # instead of halving toward depth 24
    noisy = lambda u: np.exp(-0.5 * u * u) + 1e-9 * np.sin(1e7 * u)
    with pytest.raises(ConvergenceError, match=r"hankel0 noise stalls the "
                       r"k_psi fit on \[\d"):
        ExactKPsi(psi_gauss(), noisy)
    calls, real = [], ExactKPsi._m
    monkeypatch.setattr(ExactKPsi, "_m", lambda self, u:
                        calls.append(u.size) or real(self, u))
    with pytest.raises(ConvergenceError):
        ExactKPsi(psi_gauss(), noisy)
    assert calls == [4 * 17, 8 * 17, 16 * 17]


def test_kpsi_one_ensure_equals_stepwise_growth():
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    once = inverse.KPsi(psi_gauss(), cfg)
    once.ensure(60.0)
    steps = inverse.KPsi(psi_gauss(), cfg)
    for t in (7.0, 9.5, 15.0, 22.0, 40.0, 60.0):
        steps.k(t)
    assert _same_table(once._table, steps._table)
    assert once._h0_calls == steps._h0_calls


def test_kpsi_model_violation_appends_no_leaves():
    # H0 turns negative past u = 5 pi / 2, beyond the initial range [0, 6]
    kp = ExactKPsi(psi_gauss(), lambda u: np.cos(u / 5.0))
    table = kp._table
    saved = [x.copy() for x in table[:3]]
    k5 = kp.k(5.0)
    for _ in range(2):
        with pytest.raises(ModelViolationError):
            kp.k(9.0)
        assert kp._table is table and _same_table(table, saved)
    assert kp.k(5.0) == k5


def test_k_rejects_negative_transform_region():
    # an H0 that goes negative inside the initial range, given as m
    # directly so that the violation is deterministic
    with pytest.raises(ModelViolationError):
        ExactKPsi(psi_gauss(), lambda u: np.cos(3.0 * u))


def test_k_domain_errors():
    with pytest.raises(ValueError):
        k_psi(psi_gauss(), -1.0)
    with pytest.raises(ValueError):
        k_psi(psi_gauss(), math.inf)


def test_kpsi_k_rejects_nan_and_takes_inf(solved_gauss):
    kp = ExactKPsi(psi_gauss())
    for t in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            kp.k(t)
    with pytest.raises(ValueError):
        solved_gauss.inverse(math.nan)
    assert kp.k(math.inf) == kp.k(2e8)


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
    # k(newton(u)) = u within 2 ulps of 1 wherever newton is finite; it
    # is inf only below the attainable floor: 100 ulps of 1 (gaussian),
    # k at the 1e8 cap (cauchy, 1.25e-8). invert, through the f pieces
    # above 2^-14, is within 0.01 k_tol (1 + f) of newton and inf where
    # newton is
    us = np.geomspace(1e-16, 1.0 - 1e-12, 200)
    for psi, floor in ((psi_gauss(), 2.3e-14), (psi_cauchy(), 1.3e-8)):
        kp = inverse._get_kpsi(psi, QuadConfig())
        t = kp.newton(us)
        assert np.all(np.isfinite(t[us >= floor]))
        fin = np.isfinite(t)
        assert np.max(np.abs(kp.k(t[fin]) - us[fin])) <= 4.5e-16
        got = kp.invert(us)
        assert np.array_equal(np.isfinite(got), fin)
        assert np.all(np.abs(got[fin] - t[fin])
                      <= 0.01 * kp.k_tol * (1.0 + t[fin]))


def _between_u():
    # the points between the f pieces' nodes, a row per octave
    j = np.arange(inverse._F_OCTAVES)[:, None]
    x = inverse._F_BETWEEN
    return np.where(j == 0, 1.0 - 0.25 * (x + 1.0),
                    np.ldexp(0.25 * (x + 3.0), -j))


def test_f_pieces_solve_no_root(monkeypatch):
    kp = inverse.KPsi(psi_cauchy(), QuadConfig())
    kp._extend(lambda table: 1.0 - table[1][-1] > inverse._F_LOW)
    calls = []
    newton, bracketed = inverse.KPsi.newton, inverse._newton_bracketed
    monkeypatch.setattr(inverse.KPsi, "newton", lambda self, u: (
        calls.append("newton"), newton(self, u))[1])
    monkeypatch.setattr(inverse, "_newton_bracketed", lambda *args: (
        calls.append("bracketed"), bracketed(*args))[1])
    kp._f_pieces(0.0025 * kp.k_tol)
    assert calls == []
    kp.newton(np.array([0.5]))  # the counters see a root solve
    assert calls == ["newton", "bracketed"]


@pytest.mark.filterwarnings("ignore:heuristic")
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_f_piece_check_is_newtons(make_psi, tol):
    # a piece is ok iff newton's roots at the points between its nodes
    # are within 0.0025 k_tol (1 + f) of it; an ok piece is within
    # 0.01 k_tol (1 + f) of newton on the grid of the log-grid round trip
    kp = inverse.KPsi(make_psi(), QuadConfig(tol, tol))
    coef, ok = kp._extend(lambda table: 1.0 - table[1][-1] > inverse._F_LOW,
                          with_f=True)[-1]
    u = _between_u()
    t = kp.newton(u.ravel()).reshape(u.shape)
    miss = np.abs(inverse._f_horner(coef, u)[0] - t)
    assert np.array_equal(
        ok, np.all(miss <= 0.0025 * kp.k_tol * (1.0 + t), axis=1))
    us = np.geomspace(1e-16, 1.0 - 1e-12, 200)
    got, i = inverse._f_horner(coef, us[us >= inverse._F_LOW])
    want, ok = kp.newton(us[us >= inverse._F_LOW]), ok[i]
    assert np.all(np.abs(got - want)[ok] <= 0.01 * kp.k_tol * (1.0 + want[ok]))


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
    while k_psi(psi, hi) > u:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if k_psi(psi, mid) > u:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("make_psi", [psi_gauss, psi_cauchy])
def test_invert_batch_matches_reference_bisection(make_psi):
    psi = make_psi()
    us = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    got = invert_k(psi, us)
    want = np.array([_bisect_k(psi, float(u)) for u in us])
    assert np.max(np.abs(got - want) / (1.0 + want)) <= 1e-12


def test_invert_scalar_and_array_calls_agree_bitwise():
    psi = psi_cauchy()
    us = np.concatenate([np.geomspace(1e-4, 0.5, 40),
                         1.0 - np.geomspace(1e-4, 0.5, 40)])
    batch = invert_k(psi, us)
    single = [invert_k(psi, float(u)) for u in us]
    assert all(isinstance(t, float) for t in single)
    assert np.array_equal(batch, np.array(single))
    assert np.array_equal(invert_k(psi, us[::-1]), batch[::-1])


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
        results[n] = [k_psi(psi, t) for t in ts]

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


def test_kpsi_grown_from_eight_threads_equals_a_sequential_build():
    # eight threads grow one fresh table at once, each through its own
    # increasing t; growths serialize on the lock and each swaps in a
    # whole table, so table and results match one thread's build bitwise
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)

    def calls(kp, n):
        out = []
        for j in range(3):
            out.append(kp.k(np.linspace(0.0, 5.0 + 2.0 * n + 12.0 * j, 7)))
            out.append(kp.invert(np.array([10.0 ** -(2 + n + 3 * j)])))
        return out

    kp = inverse.KPsi(psi_gauss(), cfg)
    start = threading.Barrier(8)
    results, errors = [None] * 8, []

    def worker(n):
        try:
            start.wait(timeout=30)
            results[n] = calls(kp, n)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    seq = inverse.KPsi(psi_gauss(), cfg)
    want = [calls(seq, n) for n in range(8)]
    assert _same_table(kp._table, seq._table)
    assert kp._h0_calls == seq._h0_calls
    for got, ref in zip(results, want):
        assert all(np.array_equal(x, y) for x, y in zip(got, ref))
    # the f pieces, built by whichever thread came first, and f.eval
    assert all(np.array_equal(x, y)
               for x, y in zip(kp._table[-1], seq._table[-1]))
    us = np.concatenate([np.geomspace(1e-12, 0.5, 500),
                         1.0 - np.geomspace(1e-12, 0.5, 500)])
    assert np.array_equal(kp.invert(us), seq.invert(us))


def test_sample_vn_on_a_fresh_f_from_four_workers_equals_one(monkeypatch):
    # four workers draw from the f of a fresh table at once, in chunks of
    # 4096: the first to need the f pieces builds them under the lock, the
    # others wait for them, and the draws have the bits of one worker's
    from sinelaw.limitlaw import ParamFunction
    from sinelaw.sampler import sample_vn
    built, real = [], inverse.KPsi._f_pieces

    def counting(self, tol):
        built.append(self)
        return real(self, tol)

    monkeypatch.setattr(inverse.KPsi, "_f_pieces", counting)
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    draws = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("4", "1"):
            monkeypatch.setenv("SINELAW_WORKERS", workers)
            kp = inverse.KPsi(psi_gauss(), cfg)
            f = ParamFunction(eval=kp.invert, epsilon_f=-1)
            draws.append(sample_vn(f, 1000, 8 * 4096, 7, 4096).values)
            assert built.count(kp) == 1
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(draws[0], draws[1])


def test_equal_configs_share_one_k_table():
    # a CharFn keeps its k tables in its own __dict__, one per distinct
    # QuadConfig: two equal configs built apart find the same table
    ev = lambda t: np.exp(-0.5 * np.square(t))
    psi = CharFn(ev, Decay("gaussian", 1.0), (0.0, math.inf), "gaussian")
    assert (psi.eval, psi.decay, psi.support, psi.name) == (
        ev, Decay("gaussian", 1.0), (0.0, math.inf), "gaussian")
    assert CharFn(eval=ev, decay=Decay("gaussian", 1.0)).name == "psi"
    kp = inverse._get_kpsi(psi, QuadConfig())
    assert inverse._get_kpsi(psi, QuadConfig()) is kp
    assert psi.__dict__["_kpsi_cache"] == {QuadConfig(): kp}
    assert k_psi(psi, 1.0) == kp.k(1.0)
    assert "_kpsi_cache" not in CharFn(ev, Decay("gaussian", 1.0)).__dict__


def test_kpsi_constants_against_numpy_polynomial():
    # the Clenshaw-Curtis weights and the integral over s + 1
    cheb = np.polynomial.chebyshev
    for k in range(17):
        unit = np.eye(17)[k]
        assert inverse._CC_WEIGHTS[k] == pytest.approx(
            cheb.chebval(1.0, cheb.chebint(unit, lbnd=-1.0)), abs=1e-15)
        quo = cheb.chebdiv(cheb.chebint(unit, lbnd=-1.0), [1.0, 1.0])[0]
        assert np.allclose(np.pad(quo, (0, 17 - quo.size)),
                           inverse._ANTIDERIV[k], rtol=0.0, atol=1e-15)


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


def test_density_of_the_solved_f(solved_gauss, solved_cauchy):
    # the arcsine mixture of the tabulated f against the closed forms
    from sinelaw.limitlaw import density_profile
    xs = np.linspace(-8.0, 8.0, 41)
    for f, want in (
            (solved_gauss, np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)),
            (solved_cauchy, A / (math.pi * (xs * xs + A * A)))):
        assert np.max(np.abs(density_profile(f, xs) - want)) <= 1e-7


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
