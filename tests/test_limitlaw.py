"""Direct-problem tests.

The two worked parameter functions and their known limits:
  f(u) = sqrt(-2 ln u)              -> standard normal
  f(u) = sqrt(pi/2) sqrt(1-u^2)/u   -> Cauchy(0, sqrt(pi/2))
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sinelaw import limitlaw, quadrature
from sinelaw.bessel import j0
from sinelaw.errors import ConvergenceError
from sinelaw.limitlaw import (ParamFunction, build_limit_law, density_profile,
                              limit_char_fn, limit_density)
from sinelaw.quadrature import QuadConfig, _XK, _WK
from sinelaw.transforms import Decay, RealFunction, fourier1, hankel0, \
    fourier2_radial_crosscheck

A = math.sqrt(math.pi / 2.0)
CFG = QuadConfig(abs_tol=1e-7, rel_tol=1e-7, max_panels=200_000)


def f_gauss():
    return ParamFunction(
        eval=lambda u: np.sqrt(-2.0 * np.log(u)), epsilon_f=-1,
        inverse=lambda t: math.exp(-0.5 * t * t), f_id="gaussian")


def f_cauchy():
    return ParamFunction(
        eval=lambda u: A * np.sqrt(1.0 - np.square(u)) / u, epsilon_f=-1,
        inverse=lambda t: math.sqrt(math.pi) / math.sqrt(2.0 * t * t + math.pi),
        f_id="cauchy")


def test_param_function_spot_checks():
    assert f_gauss().spot_check()
    assert f_cauchy().spot_check()
    broken = ParamFunction(eval=lambda u: np.sin(20 * u), epsilon_f=-1)
    with pytest.raises(ValueError):
        broken.spot_check()


def test_param_function_construction():
    ev = lambda u: 1.0 - u
    f = ParamFunction(ev, 1, None, "line")
    assert vars(f) == dict(eval=ev, epsilon_f=1, inverse=None, f_id="line")
    g = ParamFunction(eval=ev)
    assert (g.epsilon_f, g.inverse, g.f_id) == (None, None, "custom")
    for bad in (0, 2, -2, "up"):
        with pytest.raises(ValueError, match="epsilon_f"):
            ParamFunction(eval=ev, epsilon_f=bad)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_charfn_gaussian_example(t):
    assert limit_char_fn(f_gauss(), t, CFG) == pytest.approx(
        math.exp(-0.5 * t * t), abs=1e-6)


def test_charfn_at_zero_is_exactly_one():
    for f in (f_gauss(), f_cauchy()):
        assert limit_char_fn(f, 0.0, CFG) == 1.0


@pytest.mark.parametrize("c", [0.5, 2.5])
def test_charfn_constant_f_is_bessel(c):
    f = ParamFunction(
        eval=lambda u, c=c: np.full_like(np.asarray(u, dtype=np.float64), c),
        f_id=f"const:{c}")
    for t in (0.7, 3.0):
        assert limit_char_fn(f, t, CFG) == pytest.approx(j0(c * t), abs=1e-6)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
def test_charfn_cauchy_closed_form(t):
    assert limit_char_fn(f_cauchy(), t, CFG) == pytest.approx(
        math.exp(-A * t), abs=1e-6)


def test_charfn_properties_all_param_functions():
    for f in (f_gauss(), f_cauchy()):
        for t in (0.25, 1.0, 5.0, 11.0):
            v = limit_char_fn(f, t, CFG)
            assert -1.0 <= v <= 1.0
            assert limit_char_fn(f, -t, CFG) == v  # even by |t|


@pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 2.0, 4.0])
def test_charfn_increasing_f_mirror(t):
    # the u -> 1-u mirror of the heavy-tailed example: increasing,
    # diverging at u -> 1, same limit law by symmetry of the uniform draw
    f = ParamFunction(
        eval=lambda u: A * np.sqrt(1.0 - np.square(1.0 - u)) / (1.0 - u),
        epsilon_f=1,
        inverse=lambda w: 1.0 - math.sqrt(math.pi) / math.sqrt(2.0 * w * w + math.pi),
        f_id="cauchy_mirror")
    assert limit_char_fn(f, t, CFG) == pytest.approx(math.exp(-A * t),
                                                     abs=1e-6)


def f_const(c=2.5):
    return ParamFunction(
        eval=lambda u: np.full_like(np.asarray(u, dtype=np.float64), c),
        f_id=f"const:{c}")


def f_cauchy_mirror():
    # increasing, with a scalar-only inverse
    return ParamFunction(
        eval=lambda u: A * np.sqrt(1.0 - np.square(1.0 - u)) / (1.0 - u),
        epsilon_f=1,
        inverse=lambda w: 1.0 - math.sqrt(math.pi) / math.sqrt(2.0 * w * w + math.pi),
        f_id="cauchy_mirror")


@pytest.mark.parametrize("make", [f_gauss, f_cauchy, f_const, f_cauchy_mirror])
def test_charfn_array_is_bitwise_the_scalar_calls(make, monkeypatch):
    # the zero split (monotone f) or the clipped panels (const) at small
    # and large t, t = 0 and a negative t, in one batch
    f = make()
    ts = np.array([[0.0, 0.01, 0.3, -1.0], [2.5, 6.0, 9.0, 30.0]])
    got = limit_char_fn(f, ts, CFG)
    assert got.shape == ts.shape
    for t, v in zip(ts.ravel(), got.ravel()):
        assert v == limit_char_fn(f, float(t), CFG)
    # with the quadrature's blocks of 3 rows or problems, the same bits
    monkeypatch.setattr(quadrature, "_T_BLOCK", 3)
    assert np.array_equal(limit_char_fn(f, ts, CFG), got)


@pytest.mark.parametrize("make, exact", [
    (f_gauss, lambda t: math.exp(-0.5 * t * t)),
    (f_cauchy, lambda t: math.exp(-A * t)),
    (f_cauchy_mirror, lambda t: math.exp(-A * t)),
])
def test_charfn_error_bounds_cover_closed_forms(make, exact):
    from sinelaw.limitlaw import _charfn_clipped, _charfn_zero_split
    f = make()
    cfg = QuadConfig(abs_tol=1e-9, rel_tol=1e-9)
    ts = np.array([1e-6, 1e-3, 0.01, 0.3, 1.0, 2.0, 4.0, 8.0])
    want = np.array([exact(t) for t in ts])
    for path in (_charfn_clipped, _charfn_zero_split):
        val, err = path(f, ts, cfg)
        assert np.all(np.abs(val - want) <= err), path.__name__


@pytest.mark.parametrize("target", ["gaussian", "cauchy"])
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-9, 1e-12])
def test_charfn_sweep_within_tolerance(target, tol):
    # 500 t on the zero split: phi never misses its closed form by more
    # than abs_tol (a lone small Euler increment used to stop lobe sums
    # early, by up to 2e-6). At 1e-12 the lobe sums, their tail and
    # panels held to 1e-12 whatever abs_tol, raised at many t
    from sinelaw.sampler import builtin_f
    ts = np.linspace(0.05, 25.0, 500)
    want = np.exp(-0.5 * ts * ts) if target == "gaussian" else np.exp(-A * ts)
    got = limit_char_fn(builtin_f(target), ts,
                        QuadConfig(abs_tol=tol, rel_tol=tol))
    assert np.max(np.abs(got - want)) <= tol


def _stepped_first_point(a, t):
    # the least m >= 1 with (m - 1/4) pi / t > a, stepping m from 1
    m = np.ones(t.shape)
    while (low := (m - 0.25) * math.pi / t <= a).any():
        m[low] += 1
    return m


def test_charfn_zero_split_starts_at_mcmahons_estimate(monkeypatch):
    # f's range starts at a = 0.5, so at t = 2000 pi the first lobe point
    # above it is the 1,001st: stepping from m = 1 took a round per point.
    # The start is read from the first lobe edges the split pulls back
    # through f. At a phase point (m - 1/4) pi / a and one ulp either side
    # of it, rounding may start the lobes one point early (lobe 0 is then
    # empty) or late (lobe 0 then holds a sign change); phi stays within
    # its tolerance either way
    f = ParamFunction(
        eval=lambda u: 0.5 + np.sqrt(-2.0 * np.log(u)), epsilon_f=-1,
        inverse=lambda w: np.exp(-0.5 * np.square(np.maximum(w - 0.5, 0.0))),
        f_id="shifted")
    phase = (np.arange(1, 60) - 0.25) * math.pi / 0.5
    ts = np.concatenate([[0.5, 4.0, 2000.0 * math.pi], phase,
                         np.nextafter(phase, 0.0), np.nextafter(phase, 1e9)])
    edges = []
    crossing = limitlaw._crossing

    def spy(f, w):
        edges.append(w[1].copy())
        return crossing(f, w)

    monkeypatch.setattr(limitlaw, "_crossing", spy)
    cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)
    val, err = limitlaw._charfn_zero_split(f, ts, cfg)
    # the first block's lobe 0 of each t ends at its first point
    start = np.rint(edges[0][::quadrature._LOBE_BLOCK] * ts / math.pi + 0.25)
    want = _stepped_first_point(0.5, ts)
    assert np.array_equal(start[:3], want[:3]) and want[2] == 1001
    assert np.all(np.abs(start - want) <= 1.0)
    assert np.all(err <= cfg.abs_tol)
    near = val[3:].reshape(3, -1)
    assert np.all(np.abs(near[1:] - near[0]) <= 2.0 * cfg.abs_tol)


def test_charfn_extreme_t_is_resolved_or_names_its_t():
    # at the CLI's 1e-7 the gaussian f's lobes start near point 2.2e-4 t /
    # pi: at t = 3e19 below 2^51, where m - 1/4 is exact, at t = 1e20
    # above it, where the edges cannot be resolved and the bound is inf.
    # A subnormal t puts every lobe point past the largest float, with no
    # overflow warning
    cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)
    ts = np.array([5e-324, 1e-320, 1e12, 3e19])
    got = limit_char_fn(f_gauss(), ts, cfg)
    assert np.all(np.abs(got - np.exp(-0.5 * ts * ts)) <= 1e-7)
    for f in (f_gauss(), f_cauchy()):
        with pytest.raises(ConvergenceError, match=r"at t=1e\+20$") as e:
            limit_char_fn(f, np.array([1.0, 1e20, 1e300]), cfg)
        assert e.value.error_bound == math.inf


def test_charfn_cauchy_small_t_at_the_clip():
    # the cauchy f diverges like 1/u, so at these t the lobes reach down
    # to the clip delta = abs_tol / 4
    f, cfg = f_cauchy(), QuadConfig(abs_tol=1e-9, rel_tol=1e-9)
    ts = np.array([1e-4, 0.0151])
    assert np.allclose(limit_char_fn(f, ts, cfg), np.exp(-A * ts),
                       rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_charfn_clipped_panels_grade_toward_both_ends(mirror, tol):
    # the cauchy f with no epsilon_f, so on the clipped path: it diverges
    # at one end, where J0(t f(u)) turns near u ~ t; panels even in u
    # missed that turn by up to 962 abs_tol, silently, at 12 of these t
    # at 1e-6 and 25 at 1e-9
    from sinelaw.limitlaw import _charfn_clipped
    ev = f_cauchy().eval
    f = ParamFunction(eval=(lambda u: ev(1.0 - u)) if mirror else ev)
    ts = np.geomspace(tol / 30.0, 1e3 * tol, 40)
    cfg = QuadConfig(abs_tol=tol, rel_tol=tol)
    val, err = _charfn_clipped(f, ts, cfg)
    miss = np.abs(val - np.exp(-A * ts))
    assert np.all(miss <= err)
    assert np.max(miss) <= tol
    assert np.array_equal(limit_char_fn(f, ts, cfg), val)


def test_charfn_raw_stop_bound_is_within_tolerance():
    # a lobe sum that stops on two small raw terms bounds its tail by 40
    # times their sum; each within a quarter of the tolerance let that
    # reach 20 times it, so these t raised on true errors near 1e-9
    ts = np.array([6.3e-6, 1.04e-5, 1.51e-5])
    got = limit_char_fn(f_cauchy(), ts, QuadConfig(abs_tol=1e-6,
                                                   rel_tol=1e-6))
    assert np.max(np.abs(got - np.exp(-A * ts))) <= 1e-8


@pytest.mark.parametrize("make", [f_cauchy, f_cauchy_mirror])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_charfn_first_lobe_change_is_resolved(make, tol):
    # at t near abs_tol the first crossing of a 1/u-like f lies near
    # u = 0.52 t, and lobe 0 reaches from there to the other end; in u
    # its first panels miss the change of J0 near the crossing, by up to
    # 8e3 abs_tol at 1e-12
    from sinelaw.limitlaw import _charfn_zero_split
    ts = np.geomspace(tol / 30.0, 1e4 * math.sqrt(tol), 40)
    val, err = _charfn_zero_split(make(), ts,
                                  QuadConfig(abs_tol=tol, rel_tol=tol))
    miss = np.abs(val - np.exp(-A * ts))
    assert np.all(miss <= err)
    assert np.max(miss) <= tol


def test_charfn_array_failure_names_the_failing_t():
    from sinelaw.errors import ConvergenceError
    f = f_gauss()
    # on 9 lobes t = 3 converges and t = 4 does not
    cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7, max_panels=9)
    assert limit_char_fn(f, 3.0, cfg) == pytest.approx(math.exp(-4.5),
                                                       abs=1e-7)
    with pytest.raises(ConvergenceError) as ei:
        limit_char_fn(f, np.array([0.0, 3.0, 4.0, 3.0]), cfg)
    assert "at t=4.0" in str(ei.value)
    assert ei.value.best is not None and ei.value.error_bound > 1e-7


def test_charfn_lobes_start_from_f_not_its_declared_range():
    # f >= 0.5, not the (0, inf) of the builtins: the lobes below f's
    # least value are empty, and a sum started there stops on them at
    # 0.0. mpmath puts phi(50) at -3.63892801196e-5
    f = ParamFunction(
        eval=lambda u: 0.5 + np.sqrt(-2.0 * np.log(u)), epsilon_f=-1,
        inverse=lambda w: np.exp(-0.5 * np.square(np.maximum(w - 0.5, 0.0))))
    got = limit_char_fn(f, 50.0, QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    assert got == pytest.approx(-3.63892801196e-5, abs=1e-10)


@pytest.mark.parametrize("target", ["gaussian", "cauchy"])
@pytest.mark.parametrize("tol", [1e-10, 1e-7])
def test_charfn_monotone_f_without_inverse(target, tol):
    # the crossings come from bisecting f
    from sinelaw.limitlaw import _charfn_zero_split
    from sinelaw.sampler import builtin_f
    f = ParamFunction(eval=builtin_f(target).eval, epsilon_f=-1)
    cfg = QuadConfig(abs_tol=tol, rel_tol=tol)
    ts = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 25.0])
    want = np.exp(-0.5 * ts * ts) if target == "gaussian" else np.exp(-A * ts)
    val, err = _charfn_zero_split(f, ts, cfg)
    assert np.all(np.abs(val - want) <= err)
    assert np.max(np.abs(limit_char_fn(f, ts, cfg) - want)) <= tol


def test_charfn_lobe_sum_out_of_terms_names_its_t():
    # the zero split sums at most max_panels lobes: on 20, t = 40 settles
    # and t = 3 does not, and the error carries t = 3's own best value
    cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7, max_panels=20)
    with pytest.raises(ConvergenceError, match=r"at t=3\.0$") as batch:
        limit_char_fn(f_cauchy(), np.array([40.0, 3.0]), cfg)
    with pytest.raises(ConvergenceError) as single:
        limit_char_fn(f_cauchy(), 3.0, cfg)
    assert batch.value.best == single.value.best
    assert batch.value.best == pytest.approx(math.exp(-3.0 * A), abs=1e-6)
    assert batch.value.error_bound == math.inf


def test_charfn_unreachable_tolerance_raises():
    from sinelaw.errors import ConvergenceError
    f = f_cauchy()
    with pytest.raises(ConvergenceError) as ei:
        limit_char_fn(f, 2.0, QuadConfig(abs_tol=1e-15, rel_tol=1e-15))
    assert ei.value.best is not None


# ---------------------------------------------------------------------------
# inverse derivative
# (f^-1)' by differences, for the Cor 2.3 h-route oracle below

def numeric_inverse_derivative(f, u):
    """(f^-1)'(u) = 1 / f'(f^-1(u)) by central differences on f.

    u is a value of f, so positive. One Richardson level on top of the
    central difference gives ~1e-9 truncation error at double precision.
    """
    if not u > 0.0:
        raise ValueError(f"u={u} is not a value of f, which is positive")
    if f.inverse is not None:
        x = float(f.inverse(u))
    else:
        if f.epsilon_f is None:
            raise ValueError("need either an inverse or a declared monotonicity")
        x = _invert_monotone(f, u)
    if not (1e-300 < x < 1.0 - 1e-15):
        raise ValueError(
            f"f^-1({u}) = {x} collapses to the boundary of (0,1) at "
            "working precision; the derivative is not resolvable there")
    h = max(1e-6, 1e-6 * abs(x))
    h = min(h, 0.5 * x, 0.5 * (1.0 - x))

    def central(step):
        return (float(f.eval(x + step)) - float(f.eval(x - step))) / (2.0 * step)

    d1 = central(h)
    d2 = central(0.5 * h)
    deriv = (4.0 * d2 - d1) / 3.0
    if deriv == 0.0 or not math.isfinite(deriv):
        raise ValueError(f"f is numerically flat or singular at x={x}")
    return 1.0 / deriv


def _invert_monotone(f, y, tol=1e-13):
    lo, hi = 1e-15, 1.0 - 1e-15
    flo, fhi = float(f.eval(lo)), float(f.eval(hi))
    sign = 1.0 if f.epsilon_f == 1 else -1.0
    glo, ghi = sign * (flo - y), sign * (fhi - y)
    if glo > 0 or ghi < 0:
        raise ValueError(f"u={y} not bracketed by f on (0,1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = sign * (float(f.eval(mid)) - y)
        if gm <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
def test_inverse_derivative_gaussian_h(w):
    # h(w) = -(f^-1)'(w)/w = e^{-w^2/2}
    got = -numeric_inverse_derivative(f_gauss(), w) / w
    assert got == pytest.approx(math.exp(-0.5 * w * w), abs=1e-7)


def test_inverse_derivative_linear_map():
    f = ParamFunction(eval=lambda u: 2.0 * np.asarray(u, dtype=np.float64),
                      epsilon_f=1, inverse=lambda t: 0.5 * t, f_id="linear")
    for w in (0.3, 1.0, 1.7):
        assert numeric_inverse_derivative(f, w) == pytest.approx(0.5, abs=1e-9)


def test_inverse_derivative_cauchy_symbolic_oracle():
    # d/dw sqrt(pi)/sqrt(2w^2+pi) at w=1, derived symbolically:
    # -2 sqrt(pi) w (2w^2+pi)^{-3/2} -> -0.30405939879190599
    got = numeric_inverse_derivative(f_cauchy(), 1.0)
    assert got == pytest.approx(-0.30405939879190599, abs=1e-7)


def test_inverse_derivative_domain_error():
    with pytest.raises(ValueError):
        numeric_inverse_derivative(f_gauss(), -1.0)


def test_inverse_derivative_without_closed_inverse():
    f = f_gauss()
    f.inverse = None
    got = -numeric_inverse_derivative(f, 1.0) / 1.0
    assert got == pytest.approx(math.exp(-0.5), abs=1e-6)


# ---------------------------------------------------------------------------
# Cor 2.3 consistency: the h-route Hankel transform equals the charfn

def h_kernel(f, decay):
    def one(w):
        try:
            return -numeric_inverse_derivative(f, w) / w
        except ValueError:
            return 0.0  # f^-1(w) underflowed: h has decayed to nothing

    def ev(w):
        ww = np.atleast_1d(np.asarray(w, dtype=np.float64))
        out = np.array([one(float(x)) for x in ww])
        return out.reshape(np.shape(w)) if np.ndim(w) else float(out[0])
    return RealFunction(eval=ev, decay=decay)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_h_route_matches_charfn_gaussian(t):
    h = h_kernel(f_gauss(), Decay("gaussian", 1.0))
    via_hankel = hankel0(h, t, QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
    direct = limit_char_fn(f_gauss(), t, CFG)
    assert via_hankel == pytest.approx(direct, abs=1e-6)


def test_radial_route_matches_charfn_gaussian():
    # the 2-D Fourier transform of the radial extension of h agrees too
    h = h_kernel(f_gauss(), Decay("gaussian", 1.0))
    t = 1.0
    direct2d, via_hankel = fourier2_radial_crosscheck(
        h, t, QuadConfig(abs_tol=1e-7, rel_tol=1e-7))
    phi = limit_char_fn(f_gauss(), t, CFG)
    assert direct2d == pytest.approx(phi, abs=1e-5)
    assert via_hankel == pytest.approx(phi, abs=1e-5)


# ---------------------------------------------------------------------------
# density

def test_density_gaussian_at_zero():
    got = limit_density(f_gauss(), 0.0)
    assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-5)


@pytest.mark.parametrize("x", [0.0, 1.0, 3.0])
def test_density_cauchy_closed_form(x):
    got = limit_density(f_cauchy(), x)
    want = 1.0 / (math.sqrt(2.0 * math.pi) * (x * x + math.pi / 2.0))
    assert got == pytest.approx(want, abs=1e-5)


def test_density_requires_monotonicity():
    f = f_gauss()
    f.epsilon_f = None
    for call in (lambda: density_profile(f, [0.0]),
                 lambda: limit_density(f, 0.0)):
        with pytest.raises(ValueError, match="monotone"):
            call()
    law = build_limit_law(f)
    assert law.density is None and law.cdf is None


def fourier_oracle(f, xs, decay):
    """F1(phi)(x) / sqrt(2 pi) with phi from limit_char_fn, of the decay
    class given: the paper's Levy inversion, which the package no longer
    runs, as an independent check of the arcsine-mixture density."""
    inner = QuadConfig(abs_tol=1e-9, rel_tol=1e-10, max_panels=200_000)
    phi = RealFunction(eval=lambda t: limit_char_fn(f, t, inner),
                       decay=decay)
    scale = math.sqrt(2.0 * math.pi)
    outer = QuadConfig(abs_tol=1e-7 * scale, rel_tol=1e-7,
                       max_panels=200_000)
    return fourier1(phi, np.asarray(xs, dtype=np.float64), outer) / scale


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_density_and_cdf_bisect_a_monotone_f_without_inverse(tol):
    # the gaussian f with its inverse removed: the crossings come from
    # bisecting the floats of (0, 1), which keeps digits of u* near 0,
    # so both paths stay within their bounds of each other and of the
    # closed forms on the CLI grid
    from sinelaw.sampler import builtin_f
    f, g = builtin_f("gaussian"), builtin_f("gaussian")
    g.inverse = None
    cfg = QuadConfig(abs_tol=tol, rel_tol=tol, max_panels=200_000)
    xs = np.linspace(-8.0, 8.0, 161)
    for cdf in (False, True):
        want = (np.array([normal_cdf(x) for x in xs]) if cdf
                else np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi))
        v, e = limitlaw._arcsine_mixture(f, xs, cfg, cdf)
        w, d = limitlaw._arcsine_mixture(g, xs, cfg, cdf)
        assert np.all(np.abs(v - w) <= e + d)
        assert np.all(np.abs(w - want) <= d)
    law = build_limit_law(g, cfg)
    assert law.density(0.3) == density_profile(g, 0.3, cfg)
    assert law.cdf(0.0) == 0.5


def test_density_and_cdf_reject_a_non_finite_inverse():
    # an inverse that turns NaN past w = 1 would put a NaN crossing in
    # the mixture, which the density reads as 0: it raises instead
    f = f_gauss()
    f.inverse = lambda w: np.where(w > 1.0, np.nan, np.exp(-0.5 * w * w))
    assert density_profile(f, [0.5]) == pytest.approx(
        math.exp(-0.125) / math.sqrt(2.0 * math.pi), abs=1e-6)
    for call in (lambda: density_profile(f, [0.5, 2.0]),
                 lambda: build_limit_law(f).cdf(0.5)):
        with pytest.raises(ValueError, match="not finite"):
            call()


def test_density_profile_matches_pointwise_and_normalizes():
    # pointwise against the Fourier inversion of phi, for both builtins
    xs = np.array([0.0, 0.8, 2.3])
    for f, decay in ((f_gauss(), Decay("gaussian", 1.0)),
                     (f_cauchy(), Decay("exponential", A))):
        prof = density_profile(f, xs)
        assert np.max(np.abs(prof - fourier_oracle(f, xs, decay))) <= 2e-6, \
            f.f_id
    # normalization over [-8, 8] on a fixed composite Gauss grid
    panels = np.linspace(-8.0, 8.0, 33)
    nodes, weights = [], []
    for a, b in zip(panels[:-1], panels[1:]):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(c + h * _XK)
        weights.append(h * _WK)
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    total = float(np.dot(weights, density_profile(f_gauss(), nodes)))
    assert total == pytest.approx(1.0, abs=1e-6)
    # the cauchy law leaves 2 P(V > 8) outside
    total = float(np.dot(weights, density_profile(f_cauchy(), nodes)))
    assert total == pytest.approx(2.0 * math.atan(8.0 / A) / math.pi,
                                  abs=1e-6)


def test_density_profile_nonnegative_both_examples():
    xs = np.linspace(-6.0, 6.0, 41)
    for f in (f_gauss(), f_cauchy()):
        prof = density_profile(f, xs)
        assert np.all(prof >= -1e-8)


def test_cdf_matches_closed_forms():
    from sinelaw.verify import erf
    cases = [(f_gauss(), lambda x: 0.5 * (1.0 + erf(x / math.sqrt(2.0)))),
             (f_cauchy(), lambda x: 0.5 + math.atan(x / A) / math.pi)]
    for f, exact in cases:
        law = build_limit_law(f)
        for x in (-20.0, -3.0, -0.7, 0.0, 0.4, 1.0, 2.5, 12.0):
            assert law.cdf(x) == pytest.approx(exact(x), abs=1e-5), x


def test_build_limit_law():
    law = build_limit_law(f_gauss())
    assert law.char_fn(1.0) == pytest.approx(math.exp(-0.5), abs=1e-6)
    assert law.density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                             abs=1e-5)
    assert law.cdf(0.0) == 0.5
    law2 = build_limit_law(
        ParamFunction(eval=lambda u: np.full_like(np.asarray(u, float), 1.0),
                      f_id="const:1"))
    assert law2.density is None and law2.cdf is None


def f_gauss_increasing():
    # the u -> 1-u mirror of f_gauss: increasing, the same limit law
    return ParamFunction(
        eval=lambda u: np.sqrt(-2.0 * np.log1p(-u)), epsilon_f=1,
        inverse=lambda t: -np.expm1(-0.5 * np.square(t)),
        f_id="gaussian_mirror")


def f_cauchy_increasing():
    # the u -> 1-u mirror of f_cauchy; its inverse 1 - 1/sqrt(1 + w),
    # w = 2 t^2 / pi, keeps the digits of small u, and is 1 at w = inf
    def inverse(t):
        w = 2.0 * np.square(t) / math.pi
        r = np.sqrt(1.0 + w)
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(w), 1.0, w / (r * (1.0 + r)))
    return ParamFunction(
        eval=lambda u: A * np.sqrt(u * (2.0 - u)) / (1.0 - u), epsilon_f=1,
        inverse=inverse, f_id="cauchy_mirror")


def f_shifted(a=0.5):
    # f = a + (-3 ln u)^(1/3) on the range (a, inf): the 2-D law behind
    # V vanishes inside the disc of radius a, quadratically at its edge,
    # so phi decays like t^-3.5 only, which the density does not need
    return ParamFunction(
        eval=lambda u: a + np.cbrt(-3.0 * np.log(u)), epsilon_f=-1,
        inverse=lambda t: np.exp(-np.maximum(t - a, 0.0) ** 3 / 3.0),
        f_id="shifted")


def normal_cdf(x):
    from sinelaw.verify import erf
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def test_increasing_f_density_and_cdf_are_standard_normal():
    f = f_gauss_increasing()
    xs = np.array([-5.0, -2.3, -0.8, 0.0, 0.4, 1.0, 3.0, 7.0])
    want = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(density_profile(f, xs) - want)) <= 1e-7
    law = build_limit_law(f)
    assert law.density(1.0) == pytest.approx(want[5], abs=1e-6)
    for x in xs:
        assert law.cdf(x) == pytest.approx(normal_cdf(x), abs=1e-6), x


def test_range_above_zero_matches_fourier_inversion():
    # |x| < a takes the whole of (0, 1), |x| > a the stretch to u*
    f = f_shifted()
    xs = np.array([0.2, 0.45, 0.7, 1.5])
    got = density_profile(f, xs)
    want = fourier_oracle(f, xs, Decay("algebraic", 3.5))
    assert np.max(np.abs(got - want)) <= 5e-7


@pytest.mark.parametrize("make, x", [(f_gauss, 40.0), (f_gauss, 1e200),
                                     (f_cauchy, 1e200),
                                     (f_gauss_increasing, 40.0)])
def test_density_and_cdf_where_the_stretch_underflows(make, x):
    # f^-1(|x|) rounds to the end of (0, 1): nothing is left to integrate
    f = make()
    assert np.array_equal(density_profile(f, [x, -x]), [0.0, 0.0])
    law = build_limit_law(f)
    assert law.cdf(x) == 1.0 and law.cdf(-x) == 0.0


_TIGHT = QuadConfig(abs_tol=1e-11, rel_tol=1e-11)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-6.0, 6.0), cauchy=st.booleans())
def test_cdf_difference_quotient_is_the_density(x, cauchy):
    f = f_cauchy() if cauchy else f_gauss()
    law = build_limit_law(f, _TIGHT)
    h = 1e-3
    slope = (law.cdf(x + h) - law.cdf(x - h)) / (2.0 * h)
    # central difference error h^2 |p'''| / 6 <= 1.01e-7 for both laws
    assert slope == pytest.approx(law.density(x), abs=2e-7)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("target", ["gaussian", "cauchy"])
def test_density_and_cdf_bounds_cover_closed_forms(target, tol):
    # the CLI grid -8:8:161, x = 0 included
    from sinelaw.sampler import builtin_f
    f = builtin_f(target)
    cfg = QuadConfig(abs_tol=tol, rel_tol=tol, max_panels=200_000)
    xs = np.linspace(-8.0, 8.0, 161)
    if target == "gaussian":
        p = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        cdf = np.array([normal_cdf(x) for x in xs])
    else:
        p = 1.0 / (math.sqrt(2.0 * math.pi) * (xs * xs + math.pi / 2.0))
        cdf = 0.5 + np.arctan(xs / A) / math.pi
    val, err = limitlaw._arcsine_mixture(f, xs, cfg)
    assert np.all(np.abs(val - p) <= err)
    assert np.max(np.abs(val - p)) <= (1e-8 if tol == 1e-6 else tol)
    val, err = limitlaw._arcsine_mixture(f, xs, cfg, cdf=True)
    assert np.all(np.abs(val - cdf) <= err)


def _closed_form(gaussian, x, cdf):
    # standard normal or Cauchy(0, A), at 30 digits for the normal tails
    import mpmath as mp
    with mp.workdps(30):
        x = mp.mpf(x)
        if gaussian:
            return float(mp.ncdf(x) if cdf else mp.npdf(x))
        a = mp.sqrt(mp.pi / 2)
        return float(mp.mpf(0.5) + mp.atan(x / a) / mp.pi if cdf
                     else a / (mp.pi * (x * x + a * a)))


@pytest.mark.parametrize("cdf", [False, True], ids=["density", "cdf"])
@pytest.mark.parametrize("make, gaussian", [
    (f_gauss, True), (f_cauchy, False), (f_gauss_increasing, True),
    (f_cauchy_increasing, False)],
    ids=["gaussian", "cauchy", "gaussian_mirror", "cauchy_mirror"])
@settings(max_examples=40, deadline=None)
@given(x=st.floats(-10.0, 10.0), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
@example(x=2.0 ** -14, tol=1e-10)
@example(x=6.25, tol=1e-6)
@example(x=-9.0, tol=1e-6)
@example(x=0.12, tol=1e-11)
@example(x=0.14, tol=1e-11)
@example(x=0.16, tol=1e-11)
@example(x=4.34, tol=1e-11)
def test_density_and_cdf_bounds_are_honest(make, gaussian, cdf, x, tol):
    # the mirrors f(1 - u) take the graded map from u* up to u_far = 1.
    # At x = 2^-14 the arcsine form of the gaussian CDF missed by 13 times
    # its bound; at 6.25 the mirror's u* near 1 holds few digits of the
    # stretch, and at -9 it rounds onto 1. At 0.12 to 4.34 and 1e-11 the
    # gaussian mirror's density missed its tolerance by the terms added
    # to the quadrature's bound
    cfg = QuadConfig(abs_tol=tol, rel_tol=tol, max_panels=200_000)
    try:
        val, err = limitlaw._arcsine_mixture(make(), x, cfg, cdf=cdf)
    except ConvergenceError:
        return
    assert abs(float(val) - _closed_form(gaussian, x, cdf)) <= float(err)


@pytest.mark.parametrize("x, tol", [(0.12, 1e-11), (0.14, 1e-11),
                                    (0.16, 1e-11), (4.34, 1e-11),
                                    (0.36, 1e-12), (2.16, 1e-12)])
def test_density_rows_short_by_the_added_terms_are_integrated_again(x, tol):
    # the quadrature met its target but 2 reach peak and the float-grid
    # term of the mirror's u_far = 1 took the bound past the tolerance
    cfg = QuadConfig(abs_tol=tol, rel_tol=tol, max_panels=200_000)
    val, err = limitlaw._arcsine_mixture(f_gauss_increasing(), [x, 1.0],
                                         cfg)
    want = [_closed_form(True, v, False) for v in (x, 1.0)]
    assert np.all(np.abs(val - want) <= err)
    assert np.all(err <= tol * np.maximum(1.0, val))


@pytest.mark.parametrize("cdf", [False, True], ids=["density", "cdf"])
def test_mixture_blocks_keep_the_bits(cdf, monkeypatch):
    # x = 0, both signs, and at 1e-11 four density rows integrated again
    # to per-x goals, in one block and in blocks of 3 rows
    f = f_gauss_increasing()
    cfg = QuadConfig(abs_tol=1e-11, rel_tol=1e-11, max_panels=200_000)
    xs = np.array([0.0, 0.12, -0.14, 0.16, 1.0, 4.34, -2.5])
    got = limitlaw._arcsine_mixture(f, xs, cfg, cdf)
    if not cdf:
        assert np.array_equal(density_profile(f, xs, cfg), got[0])
    monkeypatch.setattr(quadrature, "_T_BLOCK", 3)
    again = limitlaw._arcsine_mixture(f, xs, cfg, cdf)
    assert all(np.array_equal(x, y) for x, y in zip(again, got))


@pytest.mark.parametrize("target, cdf, most", [
    ("gaussian", False, 2), ("gaussian", True, 5), ("cauchy", False, 1),
    ("cauchy", True, 2)])
def test_mixture_rounds_on_the_cli_grid(monkeypatch, target, cdf, most):
    # the graded map keeps the gaussian's log end from driving bisection;
    # CDF rows start on 3 panels (the cauchy CDF took 4 rounds on one)
    from sinelaw.sampler import builtin_f
    calls = []
    gk = quadrature._gk_panels
    monkeypatch.setattr(quadrature, "_gk_panels",
                        lambda *args: calls.append(1) or gk(*args))
    xs = np.linspace(-8.0, 8.0, 161)
    cfg = QuadConfig(abs_tol=1e-6, rel_tol=1e-6, max_panels=200_000)
    val, _ = limitlaw._arcsine_mixture(builtin_f(target), xs, cfg, cdf=cdf)
    assert 1 <= len(calls) <= most
    if target == "gaussian" and not cdf:
        want = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(val - want)) <= 1.01e-9


def test_density_unreachable_tolerance_raises():
    cfg = QuadConfig(abs_tol=1e-10, rel_tol=1e-10, max_panels=1)
    with pytest.raises(ConvergenceError) as info:
        density_profile(f_gauss(), [0.3, 0.5], cfg)
    assert "x=0.3" in str(info.value)
    assert info.value.best is not None and info.value.error_bound > 1e-10
    with pytest.raises(ConvergenceError):
        build_limit_law(f_gauss(), cfg).cdf(0.5)


@pytest.mark.parametrize("x", [0.0, 0.5])
def test_density_failure_bound_covers_the_best_estimate(x):
    # refining toward u* until u rounds onto it: the nodes zeroed there
    # stay inside the bound that the failure reports
    cfg = QuadConfig(abs_tol=1e-300, rel_tol=1e-300, max_panels=200_000)
    with pytest.raises(ConvergenceError) as info:
        density_profile(f_gauss(), [x], cfg)
    exact = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert abs(info.value.best - exact) <= info.value.error_bound


def test_density_rejects_nan_x():
    with pytest.raises(ValueError, match="finite"):
        density_profile(f_gauss(), [0.0, math.nan])
