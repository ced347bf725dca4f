"""The direct problem: the limiting law of f(U) sin(nU) as n grows.

The limit is V = f(U) sin(Theta), Theta uniform and independent of U.
Its characteristic function is phi(t) = int_0^1 J0(t f(u)) du, real and
even with phi(0) = 1, as J0(z) = E cos(z sin Theta) (Bessel's integral).
Given f(U) = r, r sin(Theta) is arcsine on (-r, r), so V has density and
CDF

    p(x) = (1/pi) int_{f(u) > |x|} du / sqrt(f(u)^2 - x^2),
    F(x) = 1/2 + (1/pi) E[arcsin(clip(x / f(U), -1, 1))],

one smooth integral each when f is monotone: its crossings come from its
inverse, or from bisecting f where it has none.
"""

import math
from typing import Callable, Optional

import numpy as np

from .bessel import j0_array
from .errors import ConvergenceError
from .quadrature import QuadConfig, _integrate_rows, _lobe_sums
from .transforms import _HANKEL, _checked, _eval_array

__all__ = ["ParamFunction", "LimitLaw", "limit_char_fn", "limit_density",
           "density_profile", "build_limit_law"]


class ParamFunction:
    """The sampler function f on (0,1), with the metadata the pipeline uses.

    epsilon_f: +1 if strictly increasing, -1 if strictly decreasing,
        None when monotonicity is unknown (phi then takes one adaptive
        integral, and there is no density or CDF).
    inverse: None (f is then bisected), or the u in [0, 1] where the
        monotone f crosses w, at every w >= 0: the end of (0, 1) where f
        is least for w at or below f's values, where f is greatest for w
        at or above them (w = inf included).
    """

    def __init__(self, eval: Callable[[float], float],
                 epsilon_f: Optional[int] = None,
                 inverse: Optional[Callable] = None, f_id: str = "custom"):
        if epsilon_f not in (None, 1, -1):
            raise ValueError("epsilon_f must be +1, -1 or None")
        self.eval, self.epsilon_f, self.inverse, self.f_id = (
            eval, epsilon_f, inverse, f_id)

    def eval_array(self, u):
        return _eval_array(self.eval, u)

    def spot_check(self, n=33, tol=1e-10):
        """Grid checks of the declared monotonicity and inverse."""
        us = np.linspace(0.01, 0.99, n)
        vals = self.eval_array(us)
        if self.epsilon_f is not None:
            diffs = np.diff(vals) * self.epsilon_f
            if not np.all(diffs > 0):
                raise ValueError(
                    f"f is not strictly {'increasing' if self.epsilon_f == 1 else 'decreasing'} "
                    "on the check grid")
        if self.inverse is not None:
            back = _eval_array(self.inverse, vals)
            if np.max(np.abs(back - us)) > tol:
                raise ValueError("inverse(eval(u)) deviates from u beyond tolerance")
        return True


class LimitLaw:
    """Bundle of the limit distribution's callables."""

    def __init__(self, char_fn: Callable[[float], float],
                 density: Optional[Callable[[float], float]] = None,
                 cdf: Optional[Callable[[float], float]] = None):
        self.char_fn, self.density, self.cdf = char_fn, density, cdf


def _crossing(f, w):
    """The u in [0, 1] where the monotone f crosses w, at each w >= 0 of
    an array: f.inverse(w), clipped, or 62 halvings of the floats in
    [0, 1], which end on the two floats next to the crossing. A NaN
    crossing would read as density 0, so an inverse's raises ValueError."""
    far = (1.0 + f.epsilon_f) / 2.0
    if f.inverse is None:
        # the bits of floats >= 0 order them: halve the bits of [0, 1.0]
        lo, hi = np.zeros(w.shape, np.int64), np.full(w.shape, 1023 << 52)
        with np.errstate(all="ignore"):
            for _ in range(62):
                mid = (lo + hi) // 2
                # f(mid) < w puts the crossing on the side where f is largest
                up = (f.eval_array(mid.view(np.float64)) < w) == (far == 1.0)
                lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        return 0.5 * (lo.view(np.float64) + hi.view(np.float64))
    with np.errstate(all="ignore"):
        u = _eval_array(f.inverse, w)
    bad = ~np.isfinite(u)
    if bad.any():
        raise ValueError(f"f.inverse is not finite at w={w[bad][0]}")
    return np.clip(u, 0.0, 1.0)


def _charfn_zero_split(f, t, cfg):
    """phi at each t via lobes of u -> J0(t f(u)), cut where f crosses
    J0's lobe points (m - 1/4) pi / t, each lobe integrated in x = ln d,
    d being the distance of u from the end where f is largest.

    Needs a monotone f. The lobes crowd toward that end, geometrically
    when f diverges like 1/d, and lobe 0 reaches from the first crossing
    to the other end: in x each lobe spans a few units, where in u the
    panels of a lobe 0 from d = 1e-7 to 1 missed the change of J0 near
    its crossing. The lobe integrals alternate, so the Euler-accelerated
    tail converges in tens of lobes even when the raw oscillation count
    runs to millions. A t whose lobes start at m >= 2^51, where m - 1/4
    is not exact, gets the bound inf. Returns (values, error_bounds).
    """
    delta = min(cfg.abs_tol / 4.0, 1e-3)
    far = (1.0 + f.epsilon_f) / 2.0
    # the lobes start at the first point above f's least value on the clip
    low = f.eval_array(np.array([delta if far else 1.0 - delta]))[0]
    with np.errstate(over="ignore"):  # an m0 of inf is past 2^51 too
        m0 = np.floor(low * t / math.pi + 0.25) + 1.0
    on = m0 < 2.0 ** 51
    t, m0 = t[on], m0[on]

    def lobes(p, k):
        # lobe k spans the x where f crosses points z(m - 1) and z(m),
        # clamped to the clip d >= delta; point m0 - 1 is not above f's
        # least value (to rounding), so lobe 0 starts at the end where f
        # is smallest, x = 0
        m, z = m0[p] + k, _HANKEL[2]
        with np.errstate(over="ignore"):  # inf past the largest float
            w = np.stack([np.where(k > 0, z(m - 1), 0.0), z(m)]) / t[p]
        u = _crossing(f, w)
        u[0, k == 0] = 1.0 - far
        with np.errstate(divide="ignore"):
            x = np.maximum(np.log(np.abs(far - u)), math.log(delta))
        return x[1], x[0]

    def integrand(x, p):
        # J0(t f(u)) du/dx, u = far - epsilon_f e^x
        d = np.exp(x)
        fu = f.eval_array(far - f.epsilon_f * d)
        return j0_array(t[p][:, None] * fu) * d

    val, err = np.zeros(on.shape), np.full(on.shape, math.inf)
    val[on], err[on], _ = _lobe_sums(
        integrand, lobes, t.size, max(cfg.abs_tol * 0.01, 1e-16),
        cfg.abs_tol * 0.05, 1e-12, cfg.max_panels)
    return val, err + delta


def _charfn_clipped(f, t, cfg):
    """phi at each t by adaptive panels on (delta, 1 - delta) in x =
    logit u, graded toward both ends: where f diverges at one, J0 turns
    near u ~ t, which panels even in u missed. Returns (values, bounds)."""
    delta = min(cfg.abs_tol / 4.0, 1e-3)
    end = math.log((1.0 - delta) / delta)

    def integrand(x, p):
        # J0(t f(u)) du/dx, u = 1 / (1 + e^-x), du/dx = u (1 - u)
        u = 1.0 / (1.0 + np.exp(-x))
        return j0_array(t[p][:, None] * f.eval_array(u)) * u / (1 + np.exp(x))

    # |phi| <= 1, so a relative criterion would just duplicate the
    # absolute one; run the panels on the absolute budget alone
    val, err, _ = _integrate_rows(
        integrand, np.full(t.shape, -end), np.full(t.shape, end),
        (cfg.abs_tol - 2.0 * delta) * 0.9, 1e-15, cfg.max_panels)
    return val, err + 2.0 * delta


def limit_char_fn(f: ParamFunction, t, cfg: QuadConfig = QuadConfig()):
    """phi(t) = int_0^1 J0(t f(u)) du, in [-1, 1], abs error <= cfg.abs_tol.

    t is a scalar or an array; an array gives an array of its shape, and
    every element has the same bits as a scalar call at that t. The t
    share one batched quadrature.

    The interval is clipped to (delta, 1-delta) with delta =
    min(abs_tol/4, 1e-3); |J0| <= 1 bounds the discarded contribution by
    its length. At every t != 0, a monotone f (epsilon_f set) is split
    at J0's lobe points pulled back through its inverse, or by bisection
    where it has none, the lobes are integrated in the log of the
    distance to the end where f is largest, and their alternating sums
    are Euler-accelerated; the clip then cuts only that end. Any other
    f takes one adaptive integral over the clip, in logit u. Raises
    ConvergenceError, naming the first t whose error bound exceeds the
    tolerance.
    """
    tt = np.asarray(t, dtype=np.float64)
    ta = np.abs(tt).ravel()
    if not np.all(np.isfinite(ta)):
        raise ValueError("t must be finite")
    val = np.ones(ta.shape)  # phi(0) = 1 exactly
    err = np.zeros(ta.shape)
    on = ta != 0.0
    if on.any():
        path = _charfn_clipped if f.epsilon_f is None else _charfn_zero_split
        val[on], err[on] = path(f, ta[on], cfg)
    _checked("limit_char_fn", ta, val, err, cfg.abs_tol, 0.0)
    val = np.clip(val, -1.0, 1.0)
    return float(val[0]) if tt.ndim == 0 else val.reshape(tt.shape)


def _arcsine_mixture(f, xs, cfg, cdf=False):
    """(values, error_bounds) of the density, or the CDF, at every x of
    xs, one row per x of one batched quadrature.

    f > |x| on the stretch from u* = f^-1(|x|) to the far end
    u_far = (1 + epsilon_f) / 2 of (0, 1), where f is largest. The graded
    map u = u_far - epsilon_f span (1 - s^2)^3, s in (0, 1), is
    u* + 3 epsilon_f span s^2 + O(s^4) near s = 0, which removes the
    1/sqrt edge at u*, and its jacobian 6 span s (1 - s^2)^2 flattens the
    integrand at u_far, where f may blow up (like sqrt(-2 ln u) for the
    gaussian), so that end takes no bisection; of the exponents 2, 3 and
    4, 3 took the fewest panels over both builtins at the CLI's 1e-6.

    The CDF reads f^-1 alone: with 1 / |sin(Theta)| = cosh t,
    F(x) = 1/2 + sign(x) (1/pi) int_0^inf M(|x| cosh t) dt / cosh t,
    M(w) = P(f(U) <= w), which is smooth in t at every x; the integrand
    E[arcsin(clip(x / f(U)))] of the arcsine form turns on a scale |x|
    next to u*, too fine for the nodes once |x| is small. Raises
    ConvergenceError naming the first x whose bound exceeds
    max(abs_tol, rel_tol |value|), abs_tol alone for the CDF.
    """
    if f.epsilon_f is None:
        raise ValueError("the density and CDF need a monotone f")
    xs = np.asarray(xs, dtype=np.float64)
    x = xs.ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    y, eps = np.abs(x), f.epsilon_f
    far = (1.0 + eps) / 2.0
    span = np.abs(far - _crossing(f, y))
    # a node whose u rounds onto or past u* has f(u) <= |x|: the density
    # zeroes it, and the bound takes 2 (largest such s) (largest value)
    reach, peak, low = np.zeros(x.shape), np.zeros(x.shape), np.ones(x.shape)

    def density(s, p):
        # p names the x of each panel
        yp, c = y[p, None], 1.0 - s * s
        jac = 6.0 * span[p, None] * s * c * c
        with np.errstate(all="ignore"):
            fu = f.eval_array(far - eps * span[p, None] * c * c * c)
            v = jac / np.sqrt((fu - yp) * (fu + yp))
        lost = ~np.isfinite(v)
        v[lost] = 0.0
        np.maximum.at(reach, p, np.where(lost, s, 0.0).max(axis=1))
        np.maximum.at(peak, p, v.max(axis=1))
        np.minimum.at(low, p, s[:, 0])
        return v

    def below(t, p):
        # M(|x| cosh t) / cosh t
        with np.errstate(all="ignore"):
            ch = np.cosh(t)
            return np.abs(1.0 - far - _crossing(f, y[p, None] * ch)) / ch

    # f <= |x| on all of (0, 1) puts M = 1 at every t: F = 1/2 +/- 1/2
    val = np.where(cdf & (span == 0.0), 0.5 * math.pi, 0.0)
    err = np.zeros(x.shape)
    abs_tol, rel_tol = math.pi * cfg.abs_tol, 0.0 if cdf else cfg.rel_tol
    rows = np.flatnonzero((span > 0.0) & ((y > 0.0) | (not cdf)))
    if cdf:
        # past T the integral lies between tail M(|x| cosh T) and tail
        T = math.log(20.0 / abs_tol)
        tail = 2.0 * math.atan(math.exp(-T))
        # rows start on 3 equal panels: of 1 to 8, the fewest GK15 panels
        # over both builtins on the CLI grid at 1e-6 and 1e-10
        hi, fn, target, panels = T, below, abs_tol - tail, 3
    else:
        hi, fn, target, panels = 1.0, density, abs_tol, None

    def integrate(rows, goal, rel_tol):
        # goal: the target of every row, or an array of one per x
        if rows.size:
            val[rows], err[rows], _ = _integrate_rows(
                lambda s, p: fn(s, rows[p]), np.zeros(rows.size),
                np.full(rows.size, hi), goal if np.isscalar(goal)
                else goal[rows], rel_tol, cfg.max_panels, panels)

    def bound():
        # the density's terms outside the quadrature: 2 reach peak, and
        # as nodes near u_far round g = spacing(u_far) apart, at most
        # g peak / (2 span low) over GK15's weights, which the bound
        # takes twice, and pi g for a stretch that rounds away
        den = span * low
        share = np.divide(peak, den, out=np.zeros(x.shape), where=den > 0.0)
        return err + 2.0 * reach * peak + (math.pi + share) * np.spacing(far)

    integrate(rows, target, rel_tol)
    if cdf:
        with np.errstate(over="ignore"):
            m = np.abs(1.0 - far - _crossing(f, y[rows] * math.cosh(T)))
        val[rows] += tail * m
        err[rows] += tail * (1.0 - m)
    total = err if cdf else bound()
    tol = np.maximum(abs_tol, rel_tol * np.abs(val))
    failed = ~(total <= tol)
    bad = failed.any()
    if bad and not cdf:
        # a row that misses by the added terms alone is integrated again,
        # to the tolerance less them
        extra = total - err
        integrate(np.flatnonzero(failed & (err <= tol) & (extra < tol)),
                  tol - extra, 0.0)
        total = bound()
        tol = np.maximum(abs_tol, rel_tol * np.abs(val))
        failed = ~(total <= tol)
        bad = failed.any()
    err = total
    val, err, tol = val / math.pi, err / math.pi, tol / math.pi
    if cdf:
        # the bound takes the rounding of the final sum
        val = 0.5 + np.sign(x) * val
        err += 2.0 * np.finfo(np.float64).eps * (0.5 + np.abs(val))
    if bad:
        i = int(np.argmax(failed))
        raise ConvergenceError(
            f"{'cdf' if cdf else 'density'} error bound {err[i]:.2e} "
            f"exceeds {tol[i]:.2e} at x={x[i]}",
            best=float(val[i]), error_bound=float(err[i]))
    return val.reshape(xs.shape), err.reshape(xs.shape)


def limit_density(f: ParamFunction, x: float, cfg: QuadConfig = QuadConfig(abs_tol=1e-6, rel_tol=1e-6)):
    """Density of the limit law at x: density_profile at one x."""
    return float(density_profile(f, float(x), cfg))


def density_profile(f: ParamFunction, xs, cfg: QuadConfig = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)):
    """Density of the limit law at every x of xs, in the shape of xs, for
    a strictly monotone f. Tests check it against the Fourier inversion
    of phi."""
    return _arcsine_mixture(f, xs, cfg)[0]


def build_limit_law(f: ParamFunction, cfg: QuadConfig = QuadConfig(abs_tol=1e-6, rel_tol=1e-6)):
    """Assemble a LimitLaw for f; density/cdf only for a monotone f."""
    char_fn = lambda t: limit_char_fn(f, t, cfg)
    density = cdf = None
    if f.epsilon_f is not None:
        density = lambda x: limit_density(f, x, cfg)
        cdf = lambda x: float(_arcsine_mixture(f, float(x), cfg, cdf=True)[0])
    return LimitLaw(char_fn=char_fn, density=density, cdf=cdf)
