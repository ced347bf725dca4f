"""Order-0 Hankel transform, cosine Fourier transform of even functions,
and a radial 2-D Fourier cross-check.

For t > 0 the integrands oscillate through the lobes of J0(rt) (or
cos(tx)); the integral over (0, inf) is computed lobe-by-lobe between
consecutive kernel zeros, with the alternating lobe sums accelerated by
the iterated-mean (Euler) transform. Non-oscillatory cases truncate the
domain where the declared decay envelope pushes the tail below
tolerance; algebraic tails are folded to a finite interval with a power
substitution instead of being chopped.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bessel import _j0_zeros, j0_array, j0_zero
from .errors import ConvergenceError
from .quadrature import QuadConfig, _lobe_sums, _one_row, integrate

__all__ = ["Decay", "RealFunction", "QuadConfig", "hankel0", "fourier1",
           "fourier2_radial_crosscheck"]


@dataclass(frozen=True)
class Decay:
    """Tail envelope class of a function on (0, inf).

    kind 'gaussian'    : ~ exp(-r^2 / (2 scale^2))
    kind 'exponential' : ~ exp(-rate r), rate passed via `scale`
    kind 'algebraic'   : ~ r^(-p), p passed via `scale`
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "exponential", "algebraic"):
            raise ValueError(f"unknown decay kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("decay parameter must be positive")

    def envelope(self, r):
        if self.kind == "gaussian":
            return math.exp(-0.5 * (r / self.scale) ** 2)
        if self.kind == "exponential":
            return math.exp(-min(self.scale * r, 745.0))
        return (1.0 + r) ** (-self.scale)


def _eval_array(fn, x):
    """fn over a float array, elementwise, in the array's shape.

    One call when fn takes arrays and returns their shape; otherwise fn
    is taken to be scalar-only and is called once per element.
    """
    x = np.asarray(x, dtype=np.float64)
    try:
        out = np.asarray(fn(x), dtype=np.float64)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([fn(float(v)) for v in x.ravel()],
                    dtype=np.float64).reshape(x.shape)


@dataclass
class RealFunction:
    """A real function on (0, inf) with the metadata the transforms need.

    `bounded_variation` is a caller assertion (it cannot be checked from
    an evaluator); it gates nothing here but is recorded because the
    self-inversion property relies on it.
    """

    eval: Callable[[float], float]
    decay: Decay
    support: tuple = (0.0, math.inf)
    bounded_variation: bool = True

    def eval_array(self, r):
        return _eval_array(self.eval, r)


def _amplitude(g: RealFunction):
    # crude probe of the constant C in |g| <= C * envelope
    s = g.decay.scale if g.decay.kind != "exponential" else 1.0 / g.decay.scale
    if g.decay.kind == "algebraic":
        probes = [s * f for f in (2.0, 4.0, 8.0, 16.0)]
    else:
        probes = [s * f for f in (0.5, 1.0, 2.0, 4.0)]
    hi = g.support[1]
    c = 1e-12
    for r in probes:
        if r >= hi:
            continue
        env = g.decay.envelope(r)
        if env > 0:
            c = max(c, abs(float(g.eval(r))) / env)
    return 4.0 * c


def _truncation_radius(g: RealFunction, tol, weight_power):
    """R such that C * int_R^inf r^weight_power * envelope dr <= tol.

    Only used for gaussian/exponential decay; algebraic tails are folded
    instead. Finite declared support wins outright.
    """
    if math.isfinite(g.support[1]):
        return g.support[1], 0.0
    c = _amplitude(g)
    d = g.decay
    if d.kind == "gaussian":
        s2 = d.scale * d.scale
        # int_R r e^{-r^2/2s^2} = s^2 e^{-R^2/2s^2}; the unweighted tail is
        # smaller than the weighted one for R > 1, reuse the same bound
        arg = c * s2 * (1.0 + 1.0 / s2) / tol
        r = d.scale * math.sqrt(2.0 * math.log(max(arg, 2.0)))
        r = max(r, 4.0 * d.scale)
        tail = c * s2 * math.exp(-0.5 * (r / d.scale) ** 2) * (1 + r / s2)
        return r, tail
    if d.kind == "exponential":
        a = d.scale
        r = max(1.0, math.log(max(c / (a * a * tol), 2.0)) / a)
        for _ in range(4):
            r = math.log(max(c * (r ** weight_power / a + 1 / (a * a)) / tol,
                             2.0)) / a
        tail = c * math.exp(-a * r) * (r ** weight_power / a + 1.0 / (a * a))
        return r, tail
    raise AssertionError("algebraic tails are folded, not truncated")


def _folded_tail(g: RealFunction, r0, weight_power, tol, cfg):
    """int_{r0}^inf r^w g(r) dr for an algebraic tail, via r = v^(-k).

    k is picked so the folded integrand vanishes at v = 0.
    """
    p = g.decay.scale
    # k > 9 would overflow v^(-k) at the inner nodes; decay powers that
    # close to the integrability boundary just converge more slowly
    k = min(9, max(1, math.ceil(2.0 / (p - 1.0 - weight_power)) + 1))

    def folded(v):
        v = np.maximum(v, 1e-300)
        r = v ** (-float(k))
        return k * g.eval_array(r) * r ** (weight_power + 1) / v

    val, err, _ = integrate(folded, 0.0, r0 ** (-1.0 / k), tol,
                            max_panels=cfg.max_panels, raise_on_failure=False)
    return val, err


def _panel_tol(cfg):
    # keep per-lobe refinement above both the tail target and any noise
    # floor implied by the overall tolerance
    return max(cfg.truncation_tail_tol * 0.05, cfg.abs_tol * 0.02, 1e-16)


def _lobe_sum(f, edges, cfg):
    """Euler-accelerated sum of the integrals of f over the lobes
    edges(m) = (lo, hi) of a lobe-index array m: (value, error_bound)."""
    v, e, _ = _lobe_sums(_one_row(f), lambda p, m: edges(m), 1,
                         _panel_tol(cfg), cfg.truncation_tail_tol, 1e-11,
                         cfg.max_panels)
    return float(v[0]), float(e[0])


def _check_hankel_integrable(g: RealFunction):
    if g.decay.kind == "algebraic" and g.decay.scale <= 2.0:
        raise ValueError(
            f"algebraic decay p={g.decay.scale} makes r*g(r) non-integrable; "
            "the order-0 Hankel transform requires p > 2")


def _transform(g, t, cfg, f, edges, weight_power, first_zero):
    """(value, error_bound) of int_0^inf f, where f = r^weight_power g(r)
    times an oscillating kernel whose first zero is at first_zero and
    whose lobes are edges(m).

    The lobe sum runs once the kernel oscillates inside the effective
    support; otherwise one adaptive integral covers the support, plus
    the bound of the truncated tail or, for an algebraic tail, the tail
    folded with the kernel taken as 1 (only for t <= 1e-14, where the
    neglected kernel curvature contributes O(t), below tolerance).
    """
    algebraic = g.decay.kind == "algebraic"
    if algebraic:
        cut = 8.0 * (1.0 + g.decay.scale) if t <= 1e-14 else None
    else:
        cut, tail = _truncation_radius(g, cfg.truncation_tail_tol,
                                       weight_power)
        if first_zero < cut:
            cut = None
    if cut is None:
        return _lobe_sum(f, edges, cfg)
    val, err, _ = integrate(f, 0.0, cut, cfg.abs_tol * 0.5,
                            rel_tol=cfg.rel_tol, max_panels=cfg.max_panels,
                            raise_on_failure=False)
    if not algebraic:
        return val, err + tail
    tv, te = _folded_tail(g, cut, weight_power, cfg.abs_tol * 0.25, cfg)
    return val + tv, err + te + 2.0 * t * _amplitude(g)


def _checked(name, t, val, err, cfg, full_output):
    if err > cfg.abs_tol and err > cfg.rel_tol * abs(val):
        raise ConvergenceError(
            f"{name} error bound {err:.2e} exceeds tolerance at t={t}",
            best=val, error_bound=err)
    return (val, err) if full_output else val


def hankel0(g: RealFunction, t: float, cfg: QuadConfig = QuadConfig(),
            full_output: bool = False):
    """Order-0 Hankel transform int_0^inf g(r) J0(rt) r dr.

    Even in t. Raises ConvergenceError (with the best estimate attached)
    if the error bound cannot be brought under cfg.abs_tol.
    """
    _check_hankel_integrable(g)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    t = abs(t)

    def f(r):
        return r * g.eval_array(r) * j0_array(r * t)

    def edges(m):
        # lobe m lies between the m-th and (m+1)-th zeros of J0(rt)
        lo = np.where(m == 0, 0.0, _j0_zeros(np.maximum(m, 1)) / t)
        return lo, _j0_zeros(m + 1) / t

    first_zero = j0_zero(1) / t if t > 0 else math.inf
    val, err = _transform(g, t, cfg, f, edges, 1, first_zero)
    return _checked("hankel0", t, val, err, cfg, full_output)


def fourier1(g: RealFunction, t: float, cfg: QuadConfig = QuadConfig(),
             full_output: bool = False):
    """sqrt(2/pi) * int_0^inf g(x) cos(tx) dx for even integrable g.

    This is the 1-D unitary Fourier transform of the even extension of g.
    """
    if g.decay.kind == "algebraic" and g.decay.scale <= 1.0:
        raise ValueError(
            f"algebraic decay p={g.decay.scale} is not integrable; "
            "the Fourier transform requires p > 1")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    t = abs(t)

    def f(x):
        return g.eval_array(x) * np.cos(t * x)

    def edges(m):
        return (np.where(m == 0, 0.0, (m - 0.5) * math.pi / t),
                (m + 0.5) * math.pi / t)

    first_zero = (0.5 * math.pi / t) if t > 0 else math.inf
    val, err = _transform(g, t, cfg, f, edges, 0, first_zero)
    pref = math.sqrt(2.0 / math.pi)
    return _checked("fourier1", t, val * pref, err * pref, cfg, full_output)


def fourier2_radial_crosscheck(G: RealFunction, t: float,
                               cfg: QuadConfig = QuadConfig()):
    """Return (direct 2-D Fourier transform at (|t|, 0), hankel0(G, t)).

    The first component integrates over a truncated disc with a periodic
    trapezoid in the angle and adaptive panels in the radius; it never
    touches the Bessel kernel, so the pair is a genuine cross-check of
    the radial-function identity F2 = H0.
    """
    t = abs(t)
    if G.decay.kind == "algebraic":
        radius = 8.0 * (1.0 + G.decay.scale)
    else:
        radius, _ = _truncation_radius(G, min(cfg.truncation_tail_tol, 1e-12), 1)
    n_theta = max(64, 4 * (int(t * radius) // 4 + 12))
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    cos_theta = np.cos(theta)

    def f(r):
        r = np.asarray(r)
        ring = np.cos(np.outer(r, t * cos_theta)).mean(axis=1)
        return r * G.eval_array(r) * ring

    direct, _, _ = integrate(f, 0.0, radius, max(cfg.abs_tol, 1e-9),
                             max_panels=cfg.max_panels)
    return direct, hankel0(G, t, cfg)
