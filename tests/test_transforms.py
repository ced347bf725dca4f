"""Transform tests against closed forms and independent quadrature oracles.

Golden pairs (both verified in 40-digit arithmetic before freezing):
  H0(e^{-r^2/2})(t)            = e^{-t^2/2}
  H0(e^{-a r})(t), a=sqrt(pi/2) = a / (t^2 + pi/2)^{3/2}
  F1(1/(x^2+a^2))(t)           = sqrt(pi)/(a sqrt 2) e^{-a|t|}
"""

import math

import numpy as np
import pytest

from sinelaw import inverse, quadrature, transforms
from sinelaw.errors import ConvergenceError
from sinelaw.inverse import CharFn, KPsi
from sinelaw.quadrature import QuadConfig
from sinelaw.transforms import (Decay, RealFunction, _COSINE,
                                _HANKEL, _amplitude, _transform_rows,
                                _truncation_radius, fourier1,
                                fourier2_radial_crosscheck, hankel0)

A = math.sqrt(math.pi / 2.0)


def gauss_fn():
    return RealFunction(eval=lambda r: np.exp(-0.5 * np.square(r)),
                        decay=Decay("gaussian", 1.0))


def exp_fn():
    return RealFunction(eval=lambda r: np.exp(-A * r),
                        decay=Decay("exponential", A))


def lorentz_fn():
    return RealFunction(eval=lambda x: 1.0 / (np.square(x) + A * A),
                        decay=Decay("algebraic", 2.0))


def h0_of_exp_fn():
    return RealFunction(eval=lambda t: A / (np.square(t) + math.pi / 2.0) ** 1.5,
                        decay=Decay("algebraic", 3.0))


@pytest.mark.parametrize("t", [0.0, 1.0, 2.0, 4.0])
def test_hankel_gaussian_self_dual(t):
    assert hankel0(gauss_fn(), t) == pytest.approx(math.exp(-0.5 * t * t),
                                                   abs=1e-8)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 4.0])
def test_hankel_exponential_closed_form(t):
    want = A / (t * t + math.pi / 2.0) ** 1.5
    assert hankel0(exp_fn(), t) == pytest.approx(want, abs=1e-8)


def test_hankel_at_zero_is_weighted_integral():
    # direct quadrature oracle of int r g(r) dr
    from sinelaw.quadrature import integrate
    g = gauss_fn()
    direct, _, _ = integrate(lambda r: r * np.exp(-0.5 * np.square(r)),
                             0.0, 12.0, 1e-13)
    assert hankel0(g, 0.0) == pytest.approx(direct, abs=1e-10)


def test_hankel_even_in_t():
    g = gauss_fn()
    assert hankel0(g, -2.0) == hankel0(g, 2.0)
    assert fourier1(gauss_fn(), -1.5) == fourier1(gauss_fn(), 1.5)


def test_hankel_rejects_nonintegrable_decay():
    bad = RealFunction(eval=lambda r: 1.0 / (1.0 + np.square(r)),
                       decay=Decay("algebraic", 2.0))
    with pytest.raises(ValueError):
        hankel0(bad, 1.0)
    worse = RealFunction(eval=lambda r: 1.0 / (1.0 + np.abs(r)),
                         decay=Decay("algebraic", 1.0))
    with pytest.raises(ValueError):
        fourier1(worse, 1.0)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_decay_parameter_must_be_finite_and_positive(scale):
    for kind in ("gaussian", "exponential", "algebraic"):
        with pytest.raises(ValueError):
            Decay(kind, scale)


@pytest.mark.parametrize("kind", ["gaussian", "exponential", "algebraic"])
def test_decay_scales_at_the_range_ends_do_not_overflow(kind):
    # the ends of [1e-100, 1e100] pass through the envelope and check_L's
    # tail bounds in float arithmetic; just past them Decay refuses
    from sinelaw.inverse import CharFn, check_L
    for scale in (1e-100, 1e100):
        d = Decay(kind, scale)
        assert all(0.0 <= d.envelope(r) <= 1.0 for r in (0.0, 1.0, 1e300))
        check_L(CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)), decay=d))
    for scale in (1e-101, 1e101):
        with pytest.raises(ValueError, match="outside"):
            Decay(kind, scale)


def test_decay_is_an_immutable_value():
    d = Decay("exponential", 2.0)
    assert d == Decay(kind="exponential", scale=2.0)
    assert hash(d) == hash(Decay("exponential", 2.0))
    assert Decay("gaussian") == Decay("gaussian", 1.0) != d
    with pytest.raises(AttributeError):
        d.scale = 3.0
    assert d.scale == 2.0
    with pytest.raises(ValueError, match="unknown decay kind"):
        Decay("stretched", 1.0)


def test_hankel_error_bound_honest_on_goldens():
    for g, exact in [(gauss_fn(), lambda t: math.exp(-0.5 * t * t)),
                     (exp_fn(), lambda t: A / (t * t + math.pi / 2) ** 1.5)]:
        # 12 and 30 take more than one block of lobes
        for t in (0.0, 0.5, 1.0, 2.0, 4.0, 7.0, 12.0, 30.0):
            v, e = hankel0(g, t, full_output=True)
            assert e >= abs(v - exact(t)), f"t={t}"


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_fourier_lorentzian_pair(t):
    want = math.sqrt(math.pi) / (A * math.sqrt(2.0)) * math.exp(-A * abs(t))
    v, e = fourier1(lorentz_fn(), t, full_output=True)
    assert v == pytest.approx(want, abs=1e-8)
    assert e >= abs(v - want)


@pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
def test_fourier_gaussian_self_dual(t):
    # oracle: dense panel quadrature of the cosine integral, independent
    # of the zero-split machinery
    from sinelaw.quadrature import integrate
    direct, _, _ = integrate(
        lambda x: np.exp(-0.5 * np.square(x)) * np.cos(t * x), 0.0, 14.0,
        1e-13)
    want = math.sqrt(2.0 / math.pi) * direct
    assert fourier1(gauss_fn(), t) == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(math.exp(-0.5 * t * t), abs=1e-12)


def test_fourier_at_zero_is_plain_integral():
    # sqrt(2/pi) * int theta_a = sqrt(2/pi) * (pi/2)/a
    want = math.sqrt(2.0 / math.pi) * (math.pi / 2.0) / A
    assert fourier1(lorentz_fn(), 0.0) == pytest.approx(want, abs=1e-10)


def test_transform_linearity():
    g1, g2 = gauss_fn(), exp_fn()
    mix = RealFunction(
        eval=lambda r: 2.0 * np.exp(-0.5 * np.square(r)) - 0.7 * np.exp(-A * r),
        decay=Decay("exponential", min(A, 1.0)))
    for t in (0.3, 1.7):
        lhs = hankel0(mix, t)
        rhs = 2.0 * hankel0(g1, t) - 0.7 * hankel0(g2, t)
        assert lhs == pytest.approx(rhs, abs=2e-10)


def test_hankel_self_inversion_numeric_nested():
    # inner transform at default accuracy, outer relaxed so its panels
    # do not chase the inner noise; both golden shapes
    cfg_in = QuadConfig()
    cfg_out = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)

    def nest(g, decay):
        def ev(t):
            tt = np.atleast_1d(np.asarray(t, dtype=np.float64))
            out = np.array([hankel0(g, float(x), cfg_in) for x in tt])
            return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])
        return RealFunction(eval=ev, decay=decay)

    for r in (0.5, 1.0, 2.0):
        got = hankel0(nest(gauss_fn(), Decay("gaussian", 1.0)), r, cfg_out)
        assert got == pytest.approx(math.exp(-0.5 * r * r), abs=1e-7)
    for r in (0.5, 1.0, 2.0):
        got = hankel0(nest(exp_fn(), Decay("algebraic", 3.0)), r, cfg_out)
        assert got == pytest.approx(math.exp(-A * r), abs=1e-7)


@pytest.mark.parametrize("case", [
    ("gauss", 1.0, math.exp(-0.5)),
    ("gauss", 0.0, 1.0),
    ("exp", 2.0, A / (4.0 + math.pi / 2.0) ** 1.5),
])
def test_radial_crosscheck(case):
    kind, t, exact = case
    G = gauss_fn() if kind == "gauss" else exp_fn()
    direct, via_hankel = fourier2_radial_crosscheck(G, t)
    assert direct == pytest.approx(exact, abs=1e-5)
    assert via_hankel == pytest.approx(exact, abs=1e-6)
    assert direct == pytest.approx(via_hankel, abs=1e-5)


def test_scalar_eval_realfunction_wrapping():
    # scalar-only evaluator goes through the python fallback loop
    g = RealFunction(eval=lambda r: math.exp(-0.5 * r * r),
                     decay=Decay("gaussian", 1.0))
    assert hankel0(g, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_concurrent_transform_calls_agree():
    from concurrent.futures import ThreadPoolExecutor
    g = gauss_fn()
    with ThreadPoolExecutor(max_workers=8) as ex:
        vals = list(ex.map(lambda t: hankel0(g, t), [1.3] * 24))
    assert len(set(vals)) == 1


def test_finite_support_hint():
    g = RealFunction(eval=lambda r: np.where(r < 1.0, 1.0, 0.0),
                     decay=Decay("gaussian", 1.0), support=(0.0, 1.0))
    # H0(1_{r<1})(0) = 1/2
    assert hankel0(g, 0.0) == pytest.approx(0.5, abs=1e-9)


# t = 0 and 1e-15 take the folded tail of an algebraic g; up to t = 12
# (gaussian) or 2 (exponential) the others take the truncated integral,
# and the rest the lobe sum
BATCH_T = np.array([0.0, 1e-15, 0.05, 0.3, 1.0, 2.0, 4.0, 7.0, 12.0, 30.0])


@pytest.mark.parametrize("op, make_g", [
    (hankel0, gauss_fn), (hankel0, exp_fn), (hankel0, h0_of_exp_fn),
    (fourier1, gauss_fn), (fourier1, exp_fn), (fourier1, lorentz_fn)])
def test_array_transform_equals_scalar_calls_bitwise(op, make_g,
                                                    monkeypatch):
    g = make_g()
    v, e = op(g, BATCH_T, full_output=True)
    single = [op(g, float(t), full_output=True) for t in BATCH_T]
    assert all(isinstance(x, float) for pair in single for x in pair)
    assert np.array_equal(v, [s[0] for s in single])
    assert np.array_equal(e, [s[1] for s in single])
    grid = op(g, -BATCH_T[::-1].reshape(2, 5))
    assert grid.shape == (2, 5)
    assert np.array_equal(grid.ravel(), v[::-1])
    # with the quadrature's blocks of 3 rows or problems, the same bits
    monkeypatch.setattr(quadrature, "_T_BLOCK", 3)
    blocked = op(g, BATCH_T, full_output=True)
    assert np.array_equal(blocked[0], v) and np.array_equal(blocked[1], e)


@pytest.mark.parametrize("kernel, op, make_g", [
    (_HANKEL, hankel0, gauss_fn), (_HANKEL, hankel0, exp_fn),
    (_HANKEL, hankel0, h0_of_exp_fn),
    (_COSINE, fourier1, lorentz_fn)])
def test_transform_rows_mixed_tolerances_equal_scalar_calls(kernel, op,
                                                            make_g):
    g = make_g()
    rng = np.random.default_rng(7)
    abs_tol = 10.0 ** rng.uniform(-11.0, -7.0, BATCH_T.size)
    v, e = _transform_rows(kernel, g, BATCH_T, abs_tol, 0.01 * abs_tol,
                           1e-9, 10_000)
    scale = 1.0 if op is hankel0 else math.sqrt(2.0 / math.pi)
    for i, t in enumerate(BATCH_T):
        cfg = QuadConfig(abs_tol=abs_tol[i], rel_tol=1e-9)
        assert op(g, float(t), cfg, full_output=True) == (v[i] * scale,
                                                          e[i] * scale)


def test_array_transform_error_names_first_failing_t():
    # four panels leave errors of 5.4e-11 (t=0), 5.8e-11 (0.1), 6.8e-11
    # (0.2) and 8.7e-11 (0.3) on the truncated integral
    cfg = QuadConfig(abs_tol=6e-11, rel_tol=1e-14, max_panels=4)
    with pytest.raises(ConvergenceError, match=r"at t=0\.3$") as batch:
        hankel0(gauss_fn(), np.array([0.0, 0.1, 0.3, 0.2]), cfg)
    with pytest.raises(ConvergenceError) as single:
        hankel0(gauss_fn(), 0.3, cfg)
    assert (batch.value.best, batch.value.error_bound) == \
        (single.value.best, single.value.error_bound)
    assert hankel0(gauss_fn(), 0.1, cfg) == hankel0(gauss_fn(), np.array(
        [0.0, 0.1]), cfg)[1]


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_non_integrable_singularity_raises_without_warnings(t):
    # 1/x^2 at 0 drives the sums to inf or NaN: a failure to converge,
    # not a value, and no numpy warning on the way
    g = RealFunction(eval=lambda x: 1.0 / np.square(x),
                     decay=Decay("algebraic", 2.0))
    with pytest.raises(ConvergenceError, match="fourier1"):
        fourier1(g, t)


# ---------------------------------------------------------------------------
# the switch from one truncated integral to lobe sums at 32 kernel zeros

def _counting_lobe_sums(monkeypatch):
    # the number of problems of each _lobe_sums call, in call order
    calls = []
    real = transforms._lobe_sums

    def counted(*args):
        calls.append(args[2])
        return real(*args)
    monkeypatch.setattr(transforms, "_lobe_sums", counted)
    return calls


def _t_holding(kernel, g, cfg, zeros_held):
    # t at which [0, cut] holds zeros_held kernel zeros, halfway between
    # the last zero inside and the first outside
    cut, _ = _truncation_radius(g, np.array([0.01 * cfg.abs_tol]),
                                kernel[1], _amplitude(g))
    z = kernel[2]
    return 0.5 * (z(zeros_held) + z(zeros_held + 1)) / float(cut[0])


HELD = (1, 31, 32, 33, 64)
CROSSOVER_CASES = [
    (_HANKEL, hankel0, gauss_fn, lambda t: math.exp(-0.5 * t * t)),
    (_HANKEL, hankel0, exp_fn, lambda t: A / (A * A + t * t) ** 1.5),
    (_COSINE, fourier1, gauss_fn, lambda t: math.exp(-0.5 * t * t))]


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("kernel, op, make_g, exact", CROSSOVER_CASES)
def test_bounds_cover_errors_across_the_crossover(kernel, op, make_g, exact,
                                                  tol, monkeypatch):
    g = make_g()
    cfg = QuadConfig(abs_tol=tol)
    ts = np.array([_t_holding(kernel, g, cfg, n) for n in HELD])
    calls = _counting_lobe_sums(monkeypatch)
    single = [op(g, float(t), cfg, full_output=True) for t in ts]
    # 1 and 31 zeros inside the cut take the one integral, 32 on the lobes
    assert calls == [1, 1, 1]
    for t, (v, e) in zip(ts, single):
        assert abs(v - exact(t)) <= e
    v, e = op(g, ts, cfg, full_output=True)
    assert np.array_equal(v, [s[0] for s in single])
    assert np.array_equal(e, [s[1] for s in single])
    assert calls[3:] == [3]


def test_gaussian_k_table_makes_no_lobe_sum(monkeypatch):
    calls = _counting_lobe_sums(monkeypatch)
    psi = CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                 decay=Decay("gaussian", 1.0))
    kp = KPsi(psi, QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    kp.invert(np.array([1e-6, 0.5]))
    assert kp._h0_calls > 0 and calls == []
    hankel0(exp_fn(), 100.0)
    assert calls == [1]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_gaussian_k_table_computes_no_kernel_zero(tol, monkeypatch):
    # each H0 value of the table has t cut below 31.5 pi, so no J0 zero
    # can lie inside its cut and none is computed
    calls = []

    def zeros(m):
        calls.append(m)
        return _HANKEL[2](m)

    kind = _HANKEL[:2] + (zeros,) + _HANKEL[3:]
    monkeypatch.setattr(transforms, "_HANKEL", kind)
    monkeypatch.setattr(inverse, "_HANKEL", kind)
    psi = CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                 decay=Decay("gaussian", 1.0))
    kp = KPsi(psi, QuadConfig(abs_tol=tol, rel_tol=tol))
    kp.invert(np.array([1e-6, 0.5]))
    assert kp._h0_calls > 0 and calls == []
    hankel0(exp_fn(), 100.0)
    assert calls


@pytest.mark.parametrize("kernel, op, g", [
    (_HANKEL, hankel0, gauss_fn()), (_COSINE, fourier1, gauss_fn()),
    (_HANKEL, hankel0, exp_fn()), (_COSINE, fourier1, exp_fn()),
    (_COSINE, fourier1, lorentz_fn())])
def test_branch_is_the_test_on_the_32nd_zero(kernel, op, g, monkeypatch):
    # lobe sums where zero 32 / t < cut, and algebraic tails always: the
    # test as it reads, on t that span it, also within 1e-9 of where
    # zero 32 of the cosine meets the cut; each branch is the same code
    # for every t, and an array call has the bits of the scalar calls
    cfg = QuadConfig(abs_tol=1e-9)
    algebraic = g.decay.kind == "algebraic"
    cut = 8.0 * (1.0 + g.decay.scale) if algebraic else float(
        _truncation_radius(g, np.array([0.01 * cfg.abs_tol]), kernel[1],
                           _amplitude(g))[0][0])
    edge = 31.5 * math.pi / cut
    z32 = float(kernel[2](32)) / cut
    ts = np.concatenate([
        edge * (1.0 + np.array([-1e-9, -5e-10, -1e-12, 0.0, 1e-12, 5e-10,
                                1e-9])),
        [np.nextafter(z32, 0.0), z32, np.nextafter(z32, math.inf)],
        edge * np.geomspace(0.05, 3.0, 7)])
    calls = _counting_lobe_sums(monkeypatch)
    single = []
    for t in ts:
        single.append(op(g, float(t), cfg, full_output=True))
        assert bool(calls) == (algebraic or float(kernel[2](32)) / t < cut)
        calls.clear()
    v, e = op(g, ts, cfg, full_output=True)
    assert np.array_equal(v, [s[0] for s in single])
    assert np.array_equal(e, [s[1] for s in single])


def _scalar_truncation_radius(g, tol, weight_power, c):
    # the one-tolerance formulas, in math, as the reference
    if math.isfinite(g.support[1]):
        return g.support[1], 0.0
    d = g.decay
    if d.kind == "gaussian":
        s2 = d.scale * d.scale
        log_a = math.log(max(c * s2 / tol, 1.0))
        r = 1.0 + math.sqrt(1.0 + 2.0 * s2 * log_a)
        for _ in range(4):
            r = d.scale * math.sqrt(2.0 * (log_a + math.log1p(r / s2)))
        r = max(r, 4.0 * d.scale)
        return r, c * s2 * math.exp(-0.5 * (r / d.scale) ** 2) * (1 + r / s2)
    a = d.scale
    r = (2.0 * math.log(max(c / (a * a * tol), 2.0)) + 0.39) / a
    for _ in range(4):
        r = math.log(max(c * (r ** weight_power / a + 1 / (a * a)) / tol,
                         2.0)) / a
    return r, c * math.exp(-a * r) * (r ** weight_power / a + 1.0 / (a * a))


@pytest.mark.parametrize("g", [
    gauss_fn(), RealFunction(eval=lambda r: np.exp(-0.5 * np.square(r / 3.0)),
                             decay=Decay("gaussian", 3.0)),
    exp_fn(), RealFunction(eval=lambda r: np.exp(-0.2 * r),
                           decay=Decay("exponential", 0.2)),
    RealFunction(eval=lambda r: np.where(r < 2.0, 1.0, 0.0),
                 decay=Decay("gaussian", 1.0), support=(0.0, 2.0))])
@pytest.mark.parametrize("weight_power", [0, 1])
def test_truncation_radius_array_matches_scalar_formulas(g, weight_power):
    tol = 10.0 ** -np.linspace(3.0, 16.0, 27)
    c = _amplitude(g)
    cut, tail = _truncation_radius(g, tol, weight_power, c)
    assert cut.shape == tail.shape == tol.shape
    # numpy's log and exp may differ from math's by an ulp or two
    ulps = 4.0 * np.finfo(float).eps
    for i, x in enumerate(tol.tolist()):
        r, bound = _scalar_truncation_radius(g, x, weight_power, c)
        assert cut[i] == pytest.approx(r, rel=ulps, abs=0.0)
        assert tail[i] == pytest.approx(bound, rel=ulps, abs=0.0)


@pytest.mark.parametrize("g", [
    gauss_fn(), RealFunction(eval=lambda r: np.exp(-0.5 * np.square(r / 3.0)),
                             decay=Decay("gaussian", 3.0)),
    exp_fn(), RealFunction(eval=lambda r: np.exp(-0.2 * r),
                           decay=Decay("exponential", 0.2))])
@pytest.mark.parametrize("weight_power", [0, 1])
def test_truncation_tail_meets_its_target(g, weight_power):
    # the gaussian cut once missed its target by a factor (1 + R) / 2
    tol = 10.0 ** -np.linspace(6.0, 14.0, 33)
    cut, tail = _truncation_radius(g, tol, weight_power, _amplitude(g))
    # unweighted exponential decay solves for the root in one step, so
    # the tail meets tol there up to the rounding of log and exp
    assert np.all(tail <= tol * (1.0 + 1e-13)) and np.all(tail >= 0.5 * tol)


def test_lobe_sums_take_a_tighter_rel_tol():
    # past the crossover, a fixed Euler rel_tol of 1e-11 left a bound of
    # 1.70e-12 against abs_tol = rel_tol = 1e-12 here
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-12)
    t = 3.687
    v, e = hankel0(exp_fn(), t, cfg, full_output=True)
    assert e <= 1e-12
    assert abs(v - A / (A * A + t * t) ** 1.5) <= e


@pytest.mark.parametrize("make_g, exact", [
    (gauss_fn, lambda t: np.exp(-0.5 * t * t)),
    (exp_fn, lambda t: A / (A * A + t * t) ** 1.5)])
def test_hankel0_meets_a_tight_tolerance(make_g, exact):
    # a tail fixed at 1e-12, whatever abs_tol, took all of a 1e-12 budget:
    # 27 (gaussian) and 22 (exponential) of these t raised ConvergenceError
    t = np.geomspace(0.05, 200.0, 40)
    v, e = hankel0(make_g(), t, QuadConfig(abs_tol=1e-12, rel_tol=1e-12),
                   full_output=True)
    assert np.all(np.abs(v - exact(t)) <= e)


def _closed_form_families(a):
    # (transform, g, its transform in mpmath) for the algebraic and the
    # exponential family of each kernel
    mp = pytest.importorskip("mpmath")
    return [
        (fourier1, RealFunction(lambda x: 1.0 / (a * a + np.square(x)),
                                Decay("algebraic", 2.0)),
         lambda t: mp.sqrt(mp.pi / 2) / a * mp.exp(-a * t)),
        (fourier1, RealFunction(lambda x: np.exp(-a * x),
                                Decay("exponential", a)),
         lambda t: mp.sqrt(2 / mp.pi) * a / (a * a + t * t)),
        (hankel0, RealFunction(lambda r: (a * a + np.square(r)) ** -1.5,
                               Decay("algebraic", 3.0)),
         lambda t: mp.exp(-a * t) / a),
        (hankel0, RealFunction(lambda r: np.exp(-a * r),
                               Decay("exponential", a)),
         lambda t: a / (a * a + t * t) ** 1.5),
    ]


def test_lobe_sum_bounds_are_honest_on_closed_forms():
    # 62 t in [0.05, 1e3], most of them past the lobe crossover: each
    # call raises ConvergenceError or returns a bound at least its true
    # error. A bound of 10 times the last Euler increment alone missed by
    # up to 2.30 times (fourier1 of 1/(1 + x^2) at t = 74.4, tol 1e-8).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    raised = {}
    for tol in (1e-8, 1e-11):
        cfg = QuadConfig(abs_tol=tol, rel_tol=tol)
        raised[tol] = 0
        for a in (0.3, 1.0, 5.0, 100.0):
            for op, g, exact in _closed_form_families(a):
                for t in np.geomspace(0.05, 1e3, 62):
                    try:
                        v, e = op(g, float(t), cfg, full_output=True)
                    except ConvergenceError:
                        raised[tol] += 1
                        continue
                    err = abs(float(mp.mpf(v) - exact(mp.mpf(float(t)))))
                    assert err <= e, (op.__name__, g.decay, t, tol, v, e)
    assert raised[1e-8] == 0


@pytest.mark.parametrize("op, g, exact, lobes", [
    (fourier1, RealFunction(lambda x: 1.0 / (1.0 + np.square(x)),
                            Decay("algebraic", 2.0)),
     lambda t: math.sqrt(math.pi / 2.0) * math.exp(-t), 20),
    (hankel0, RealFunction(lambda r: (1.0 + np.square(r)) ** -1.5,
                           Decay("algebraic", 3.0)),
     lambda t: math.exp(-t), 30)])
def test_lobe_sum_out_of_terms_names_its_t(op, g, exact, lobes):
    # max_panels also caps the lobes of a sum: on 20 (fourier1) or 30
    # (hankel0), t = 60 settles and t = 1 does not. The error names t = 1
    # and carries its own best value, with the bound inf of a sum that
    # never settled.
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8, max_panels=lobes)
    with pytest.raises(ConvergenceError, match=r"at t=1\.0$") as batch:
        op(g, np.array([60.0, 1.0]), cfg)
    with pytest.raises(ConvergenceError) as single:
        op(g, 1.0, cfg)
    assert batch.value.best == single.value.best
    assert batch.value.best == pytest.approx(exact(1.0), abs=1e-6)
    assert batch.value.error_bound == math.inf
    assert op(g, 60.0, cfg) == pytest.approx(exact(60.0), abs=1e-8)


def test_lobe_sums_meet_a_tight_tolerance_they_report():
    # fourier1 of 1/(a^2 + x^2) at tolerance 1e-11, 62 t in [0.05, 1e3]:
    # a sum that stopped on two small increments but reported 10 times
    # the larger one raised ConvergenceError at 34, 24 and 4 of these t
    # (a^2 = 0.09, 1, 25); stopping on the reported bound itself meets
    # it, and the bound still covers the true error
    cfg = QuadConfig(abs_tol=1e-11, rel_tol=1e-11)
    ts = np.geomspace(0.05, 1e3, 62)
    for a in (0.3, 1.0, 5.0):
        g = RealFunction(lambda x, a=a: 1.0 / (a * a + np.square(x)),
                         Decay("algebraic", 2.0))
        v, e = fourier1(g, ts, cfg, full_output=True)
        exact = math.sqrt(math.pi / 2.0) / a * np.exp(-a * ts)
        assert np.all(np.abs(v - exact) <= e)
