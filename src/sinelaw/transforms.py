"""Order-0 Hankel transform, cosine Fourier transform of even functions,
and a radial 2-D Fourier cross-check.

A function with gaussian or exponential decay is truncated where its
declared envelope pushes the tail below tolerance; while fewer than 32
lobe points of the kernel J0(rt) (or cos(tx)) lie below the cut, one
adaptive integral up to it gives the transform at t. Past that, and for
every algebraic tail, the integral over (0, inf) is computed
lobe-by-lobe, lobe m ending at (m - 1/4) pi / t for J0 (McMahon's
leading term for its zeros) or (m - 1/2) pi / t, and the alternating
lobe sums are accelerated by the iterated-mean (Euler) transform. An
algebraic tail at t = 0 is folded to a finite interval with a power
substitution.
"""

import math
from typing import Callable

import numpy as np

from .bessel import j0_array
from .errors import ConvergenceError
from .quadrature import (_LOBE_BLOCK, QuadConfig, _Value, _integrate_rows,
                         _lobe_sums, _one_row, integrate)

__all__ = ["Decay", "RealFunction", "QuadConfig", "hankel0", "fourier1",
           "fourier2_radial_crosscheck"]

# lobe points inside the truncated support at which the lobe sums take
# over from one adaptive integral: there the two cost about the same per t
_LOBE_CUT = 4 * _LOBE_BLOCK


class Decay(_Value):
    """Tail envelope class of a function on (0, inf).

    kind 'gaussian'    : ~ exp(-r^2 / (2 scale^2))
    kind 'exponential' : ~ exp(-rate r), rate passed via `scale`
    kind 'algebraic'   : ~ r^(-p), p passed via `scale`

    The scale lies in [1e-100, 1e100], where the envelope and the tail
    bounds of check_L, which square it, stay finite.
    """

    def __init__(self, kind: str, scale: float = 1.0):
        if kind not in ("gaussian", "exponential", "algebraic"):
            raise ValueError(f"unknown decay kind {kind!r}")
        if not 1e-100 <= scale <= 1e100:
            raise ValueError(f"decay parameter {scale!r} is outside "
                             "[1e-100, 1e100]")
        vars(self).update(kind=kind, scale=scale)

    def envelope(self, r):
        if self.kind == "gaussian":
            return math.exp(-0.5 * min(r / self.scale, 40.0) ** 2)
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


class RealFunction:
    """A real function on (0, inf) with the metadata the transforms need."""

    def __init__(self, eval: Callable[[float], float], decay: Decay):
        self.eval, self.decay = eval, decay

    def eval_array(self, r):
        return _eval_array(self.eval, r)


def _amplitude(g: RealFunction):
    # crude probe of the constant C in |g| <= C * envelope, with one
    # eval_array call on the probes
    s = g.decay.scale if g.decay.kind != "exponential" else 1.0 / g.decay.scale
    grid = (2.0, 4.0, 8.0, 16.0) if g.decay.kind == "algebraic" else (
        0.5, 1.0, 2.0, 4.0)
    env = {s * k: g.decay.envelope(s * k) for k in grid}
    r = [r for r, e in env.items() if e > 0]
    c = 1e-12
    for x, v in zip(r, g.eval_array(r).tolist() if r else []):
        c = max(c, abs(v) / env[x])
    return 4.0 * c


def _truncation_radius(g: RealFunction, tol, weight_power, c):
    """(R, tail), one of each per tolerance of the array tol: R where
    c * int_R^inf r^weight_power * envelope dr falls to about tol, and
    that tail integral.

    c is _amplitude(g). Only used for gaussian/exponential decay; algebraic
    tails are folded instead.
    """
    d = g.decay
    if d.kind == "gaussian":
        s2 = d.scale * d.scale
        # int_R r e^{-r^2/2s^2} = s^2 e^{-R^2/2s^2}; the unweighted tail is
        # smaller than the weighted one for R > 1, reuse the same bound.
        # The tail below falls to tol at an R under 1 + sqrt(1 + 2 s^2
        # log(c s^2 / tol)); fixed-point steps from there stay above it
        log_a = np.log(np.maximum(c * s2 / tol, 1.0))
        r = 1.0 + np.sqrt(1.0 + 2.0 * s2 * log_a)
        for _ in range(4):
            r = d.scale * np.sqrt(2.0 * (log_a + np.log1p(r / s2)))
        r = np.maximum(r, 4.0 * d.scale)
        tail = c * s2 * np.exp(-0.5 * (r / d.scale) ** 2) * (1 + r / s2)
        return r, tail
    if d.kind == "exponential":
        a = d.scale
        # with weight r, y = a R solves y = L + log(1 + y), L = log(c / (a^2
        # tol)), below 2 L + 2 log 2 - 1: the fixed-point steps stay above
        r = (2.0 * np.log(np.maximum(c / (a * a * tol), 2.0)) + 0.39) / a
        for _ in range(4):
            r = np.log(np.maximum(c * (r ** weight_power / a + 1 / (a * a))
                                  / tol, 2.0)) / a
        tail = c * np.exp(-a * r) * (r ** weight_power / a + 1.0 / (a * a))
        return r, tail
    raise AssertionError("algebraic tails are folded, not truncated")


def _folded_tail(g: RealFunction, r0, weight_power, tol, max_panels):
    """int_{r0}^inf r^w g(r) dr for an algebraic tail, via r = v^(-k),
    to each tolerance of the array tol: (values, error_bounds).

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

    val, err, _ = _integrate_rows(_one_row(folded), np.zeros(tol.size),
                                  np.full(tol.size, r0 ** (-1.0 / k)), tol,
                                  1e-12, max_panels)
    return val, err


# the two transforms: name, weight power w, the kernel's lobe points z(m)
# for m >= 1 at t = 1, and the integrand x^w g(x) K(x t); lobe m lies
# between z(m) / t and z(m + 1) / t, lobe 0 starting at 0. A lobe sum
# telescopes, so its points need only track the kernel's sign changes:
# J0's lie less than 0.05 below its zeros
_HANKEL = ("hankel0", 1, lambda m: (m - 0.25) * math.pi,
           lambda g, r, t: r * g.eval_array(r) * j0_array(r * t))
_COSINE = ("fourier1", 0, lambda m: (m - 0.5) * math.pi,
           lambda g, x, t: g.eval_array(x) * np.cos(t * x))


def _transform_rows(kind, g, t, abs_tol, tail_tol, rel_tol, max_panels):
    """(values, error_bounds) of the transform `kind`, less the Fourier
    prefactor, of g at each t >= 0 of an array, to per-t tolerances
    abs_tol and tail_tol (of the truncated or Euler-summed tail).

    Each t takes one of two branches, by how many lobe points the
    truncated support [0, cut] holds. With fewer than _LOBE_CUT (a t
    with points(_LOBE_CUT) / t >= cut), one adaptive integral covers
    [0, cut], plus the bound of the truncated tail; otherwise, and for
    every algebraic tail, the lobe sums run over (0, inf). At t <= 1e-14
    an algebraic tail is instead integrated up to a fixed cut and folded
    beyond it with the kernel taken as 1 (the neglected kernel curvature
    contributes O(t), below tolerance). Each branch takes one batched
    call for all its t, and every element has the bits of a one-element
    call.
    """
    name, weight_power, points, integrand = kind
    if g.decay.kind == "algebraic" and g.decay.scale <= weight_power + 1:
        raise ValueError(
            f"algebraic decay p={g.decay.scale} makes x^{weight_power} g(x) "
            f"non-integrable; {name} requires p > {weight_power + 1}")

    def f(x, p):
        return integrand(g, x, t[p][:, None])

    def edges(p, m):
        lo = np.where(m == 0, 0.0, points(np.maximum(m, 1)) / t[p])
        return lo, points(m + 1) / t[p]

    algebraic = g.decay.kind == "algebraic"
    if algebraic:
        near0 = t <= 1e-14
        cut = np.full(t.shape, 8.0 * (1.0 + g.decay.scale))
        tail = np.zeros(t.shape)
        lobe = ~near0
    else:
        c = _amplitude(g)
        cut, tail = _truncation_radius(g, tail_tol, weight_power, c)
        # lobes once the cut holds _LOBE_CUT lobe points; none at t = 0
        with np.errstate(divide="ignore", over="ignore"):
            lobe = points(_LOBE_CUT) / t < cut
    # each lobe to 2% of abs_tol, kept above the rounding noise
    panel_tol = np.maximum(abs_tol * 0.02, 1e-16)
    val, err = np.zeros(t.shape), np.zeros(t.shape)
    j = np.flatnonzero(lobe)
    if j.size:
        val[j], err[j], _ = _lobe_sums(
            lambda x, q: f(x, j[q]), lambda q, m: edges(j[q], m), j.size,
            panel_tol[j], tail_tol[j], min(rel_tol, 1e-11), max_panels)
    j = np.flatnonzero(~lobe)
    if j.size:
        # one panel per half period of the kernel to start with
        v, e, _ = _integrate_rows(lambda x, q: f(x, j[q]), np.zeros(j.size),
                                  cut[j], abs_tol[j] * 0.5, rel_tol,
                                  max_panels, np.maximum(
                                      np.ceil(t[j] * cut[j] / math.pi), 1))
        val[j], err[j] = v, e + tail[j]
    if algebraic and near0.any():
        tv, te = _folded_tail(g, cut[0], weight_power, abs_tol[near0] * 0.25,
                              max_panels)
        val[near0] += tv
        err[near0] = err[near0] + te + 2.0 * t[near0] * _amplitude(g)
    return val, err


def _checked(name, t, val, err, abs_tol, rel_tol):
    """Raise ConvergenceError, with the best estimate attached, at the
    first t whose value is not finite or whose error bound exceeds both
    abs_tol and rel_tol |value| (a NaN bound exceeds every tolerance)."""
    tol = np.maximum(abs_tol, rel_tol * np.abs(val))
    bad = ~(err <= tol) | ~np.isfinite(val)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"{name} error bound {err[i]:.2e} exceeds tolerance at t={t[i]}",
            best=float(val[i]), error_bound=float(err[i]))


def _transform(kind, g, t, cfg, full_output, scale=1.0):
    # hankel0 and fourier1: _transform_rows at cfg's tolerances, times scale
    tt = np.asarray(t, dtype=np.float64)
    ta = np.abs(tt).ravel()
    if not np.all(np.isfinite(ta)):
        raise ValueError("t must be finite")
    # a g that overflows makes the sums inf or NaN, which _checked rejects
    with np.errstate(all="ignore"):
        val, err = _transform_rows(kind, g, ta, np.full(ta.shape, cfg.abs_tol),
                                   np.full(ta.shape, 0.01 * cfg.abs_tol),
                                   cfg.rel_tol, cfg.max_panels)
    val, err = val * scale, err * scale
    _checked(kind[0], ta, val, err, cfg.abs_tol, cfg.rel_tol)
    if tt.ndim == 0:
        val, err = float(val[0]), float(err[0])
    else:
        val, err = val.reshape(tt.shape), err.reshape(tt.shape)
    return (val, err) if full_output else val


def hankel0(g: RealFunction, t, cfg: QuadConfig = QuadConfig(),
            full_output: bool = False):
    """Order-0 Hankel transform int_0^inf g(r) J0(rt) r dr.

    Even in t. t is a scalar or an array; an array gives an array of its
    shape, every element with the bits of a scalar call at that t.
    Raises ConvergenceError (with the best estimate attached), naming the
    first t whose error bound cannot be brought under cfg.abs_tol.
    """
    return _transform(_HANKEL, g, t, cfg, full_output)


def fourier1(g: RealFunction, t, cfg: QuadConfig = QuadConfig(),
             full_output: bool = False):
    """sqrt(2/pi) * int_0^inf g(x) cos(tx) dx for even integrable g.

    This is the 1-D unitary Fourier transform of the even extension of g;
    t is a scalar or an array, as in hankel0.
    """
    return _transform(_COSINE, g, t, cfg, full_output,
                      math.sqrt(2.0 / math.pi))


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
        radius, _ = _truncation_radius(
            G, np.array([min(0.01 * cfg.abs_tol, 1e-12)]), 1, _amplitude(G))
        radius = float(radius[0])
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
