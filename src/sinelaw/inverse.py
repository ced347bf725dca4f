"""The inverse problem: build the sampler function from a target
characteristic function.

For an admissible target psi (even, nonnegative, psi(0)=1, with psi,
sqrt(t) psi and t psi integrable on (0, inf)), the map

    k_psi(t) = 1 - int_0^t u H0(psi)(u) du

is a decreasing bijection (0, inf) -> (0, 1), and f = k_psi^{-1} is the
parameter function whose sine-modulated sequence converges in law to the
distribution with density F1(psi)/sqrt(2pi).

k_psi is expensive (every integrand value is itself a Hankel quadrature),
so m(u) = u H0(psi)(u) is tabulated once on an adaptively refined panel
grid with exact cumulative integrals of the local quadratic interpolant;
inversions then cost microseconds.
"""

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, ModelViolationError
from .limitlaw import ParamFunction
from .quadrature import QuadConfig, integrate
from .transforms import (_HANKEL, Decay, RealFunction, _checked, _eval_array,
                         _transform_rows)

__all__ = ["CharFn", "TabulatedMonotone", "KPsi", "k_psi", "invert_k",
           "solve_inverse", "check_L", "LReport"]

_T_CAP = 1e8  # bracket expansion cap for the inversion
# k is evaluated as 1 minus a cumulative integral; below this floor the
# subtraction cannot represent u at all
_U_FLOOR = 100.0 * np.finfo(float).eps
_EPS = np.finfo(float).eps


@dataclass(eq=False)
class CharFn:
    """A candidate limit characteristic function psi.

    closed_form_hankel, when supplied, is the analytic H0(psi); the
    numerical transform is the default everywhere, the closed form exists
    for cross-checks and as an opt-in fast path.
    """

    eval: Callable[[float], float]
    decay: Decay
    closed_form_hankel: Optional[Callable[[float], float]] = None
    name: str = "psi"

    def eval_array(self, t):
        return _eval_array(self.eval, t)

    def as_real_function(self):
        return RealFunction(eval=self.eval, decay=self.decay)


# ---------------------------------------------------------------------------
# conditions (L) report

@dataclass
class LReport:
    """Outcome of the admissibility checks for a target psi.

    `hard` holds pass/fail of the machine-checkable conditions;
    `warnings` holds heuristic flags (sampled smoothness is one: a C1
    check from an evaluator can only ever be a heuristic).
    """

    hard: dict
    warnings: list
    details: dict

    @property
    def passed(self):
        return all(self.hard.values())

    def summary(self):
        lines = []
        for name, ok in self.hard.items():
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {self.details.get(name, '')}")
        for w in self.warnings:
            lines.append(f"WARN  {w}")
        return "\n".join(lines)


def _default_grid(psi):
    d = psi.decay
    if d.kind == "gaussian":
        t_max = 8.0 * d.scale
    elif d.kind == "exponential":
        t_max = 30.0 / d.scale
    else:
        t_max = 200.0
    return np.linspace(0.0, t_max, 801)


def check_L(psi: CharFn, grid=None):
    """Check the admissibility conditions for the inverse problem.

    Hard checks: psi(0)=1 (to 1e-12), evenness and nonnegativity on the
    grid, finiteness of int psi, int sqrt(t) psi, int t psi (numeric head
    plus a decay-class tail bound). Smoothness is sampled by finite
    differences and reported as a heuristic warning only.
    """
    if grid is None:
        grid = _default_grid(psi)
    grid = np.asarray(grid, dtype=np.float64)
    hard = {}
    details = {}
    warns = []

    v0 = float(psi.eval(0.0))
    hard["psi(0)=1"] = abs(v0 - 1.0) <= 1e-12
    details["psi(0)=1"] = f"psi(0) = {v0!r}"

    pos = grid[grid > 0]
    vp = psi.eval_array(pos)
    vm = psi.eval_array(-pos)
    even_dev = float(np.max(np.abs(vp - vm))) if pos.size else 0.0
    hard["even"] = even_dev <= 1e-10
    details["even"] = f"max |psi(t)-psi(-t)| = {even_dev:.2e}"

    min_val = float(np.min(vp)) if pos.size else v0
    hard["nonnegative"] = min_val >= -1e-12
    details["nonnegative"] = f"min on grid = {min_val:.2e}"

    # integrability of psi, sqrt(t) psi, t psi
    t_max = float(grid[-1])
    gf = psi.as_real_function()
    d = psi.decay
    for label, power, p_needed in [("psi in L1", 0.0, 1.0),
                                   ("sqrt(t) psi in L1", 0.5, 1.5),
                                   ("t psi in L1", 1.0, 2.0)]:
        if d.kind == "algebraic" and d.scale <= p_needed:
            hard[label] = False
            details[label] = (f"algebraic decay p={d.scale} gives a "
                              f"divergent tail (needs p > {p_needed})")
            continue
        head, _, _ = integrate(
            lambda x, q=power: gf.eval_array(x) * np.power(np.maximum(x, 1e-300), q),
            0.0, t_max, 1e-8, max_panels=4000, raise_on_failure=False)
        # decay-class tail bound
        env = d.envelope(t_max)
        amp = abs(float(psi.eval(t_max))) / env if env > 0 else 0.0
        if d.kind == "gaussian":
            tail = amp * math.exp(-0.5 * (t_max / d.scale) ** 2) * d.scale * (
                t_max ** power + d.scale)
        elif d.kind == "exponential":
            tail = amp * math.exp(-d.scale * t_max) * (
                t_max ** power / d.scale + 1.0 / d.scale ** 2)
        else:
            tail = amp * t_max ** (power + 1.0 - d.scale) / (d.scale - power - 1.0)
        total = head + tail
        hard[label] = math.isfinite(total)
        details[label] = f"int ~ {total:.6g} (tail bound {tail:.2g})"

    # sampled C1 heuristic: derivative jumps, and the even-function
    # requirement psi'(0) = 0
    h = max(1e-5, float(grid[1] - grid[0]) * 1e-3)
    d0 = (float(psi.eval(h)) - float(psi.eval(-h))) / (2.0 * h)
    dr = (float(psi.eval(2 * h)) - float(psi.eval(h))) / h
    if abs(dr) > 1e-4 and abs(d0) < 0.25 * abs(dr):
        # symmetric slope ~0 but one-sided slope is not: kink at the origin
        warns.append(
            f"heuristic: psi looks non-differentiable at t=0 "
            f"(one-sided slope {dr:+.4f}); conditions require C1")
    sample = grid[:: max(1, len(grid) // 160)]
    sv = psi.eval_array(sample)
    dd = np.diff(sv) / np.diff(sample)
    jumps = np.abs(np.diff(dd))
    scale = np.max(np.abs(dd)) + 1e-12
    bad = np.where(jumps > 0.5 * scale)[0]
    for i in bad[:3]:
        if sample[i + 1] > 2 * h:
            warns.append(
                f"heuristic: derivative jump near t ~ {sample[i + 1]:.4g}")

    return LReport(hard=hard, warnings=warns, details=details)


# ---------------------------------------------------------------------------
# cached k_psi evaluator

class KPsi:
    """Tabulated k_psi(t) = 1 - int_0^t m, with m(u) = u * H0(psi)(u).

    Panels store (a, mid, b) values of m; within-panel integrals use the
    interpolating quadratic in closed form. Spans are refined by adaptive
    Simpson with a position-weighted tolerance, level by level, with one
    batched H0 call per level, and the table extends itself along a fixed
    geometric landmark ladder. So the table content is a function of the
    covered range only, never of the order in which callers requested
    it, and concurrent builds (which serialize on a lock) reproduce the
    sequential table bit for bit.
    """

    _GROWTH = 1.7
    _MAX_DEPTH = 24

    def __init__(self, psi: CharFn, cfg: QuadConfig = QuadConfig(),
                 use_closed_form: bool = False):
        self.psi = psi
        self.cfg = cfg
        self.use_closed_form = use_closed_form and psi.closed_form_hankel is not None
        self.k_tol = max(cfg.abs_tol, 1e-11)
        self._lock = threading.RLock()
        self._edges = [0.0]      # leaf boundaries, ascending
        self._mids = []          # midpoint per leaf
        self._mvals = {0.0: 0.0}  # m(0) = 0 exactly
        self._panel_int = []     # quadratic integral per leaf
        self._cum = [0.0]        # cumulative integral at edges
        self._arrays = None      # the leaf arrays, rebuilt after growth
        self._gf = psi.as_real_function()
        self._h0_calls = 0
        d = psi.decay
        if d.kind == "gaussian":
            t0 = 6.0 * d.scale
        elif d.kind == "exponential":
            t0 = 8.0 / d.scale
        else:
            t0 = 8.0 * (1.0 + d.scale)
        with self._lock:
            edges = np.arange(49) * t0 / 48.0
            self._grow(edges[:-1], edges[1:])

    # -- m evaluation -------------------------------------------------

    def _fill(self, us):
        """m at each u of the array us not yet known, in one batch. H0 is
        held to k_tol * 0.02 / (1 + u)^2, and a bound within 5 times that
        is accepted; ConvergenceError names the first u beyond it."""
        u = np.array([x for x in dict.fromkeys(us.tolist())
                      if x not in self._mvals])
        if not u.size:
            return
        if self.use_closed_form:
            vals = u * _eval_array(self.psi.closed_form_hankel, u)
        else:
            target = np.array([self.k_tol * 0.02 / (1.0 + x) ** 2
                               for x in u.tolist()])
            self._h0_calls += u.size
            h, err = _transform_rows(_HANKEL, self._gf, u, target,
                                     np.maximum(target * 0.05, 1e-300), 1e-9,
                                     self.cfg.max_panels)
            _checked("hankel0", u, h, err, 5.0 * target, 1e-9)
            vals = u * h
        self._mvals.update(zip(u.tolist(), vals.tolist()))

    # -- table construction -------------------------------------------

    def _grow(self, a, b):
        """Append leaves covering the adjacent spans [a[i], b[i]], split
        breadth-first until the Simpson two-level disagreement of each
        meets the position-weighted tolerance. The leaves are appended in
        order once all are done, so a failure appends none."""
        leaves = []
        for depth in range(self._MAX_DEPTH + 1):
            mid = 0.5 * (a + b)
            q1, q2 = 0.5 * (a + mid), 0.5 * (mid + b)
            self._fill(np.concatenate([a, mid, b, q1, q2]))
            fa, fm, fb, f1, f2 = (np.array([self._mvals[u] for u in x.tolist()])
                                  for x in (a, mid, b, q1, q2))
            # permits the numeric noise of the inner transform, nothing more
            low = np.minimum(np.minimum(fa, fm), fb)
            bad = low < -(40.0 * (1.0 + b) * self.k_tol * 0.02 / (1.0 + a)
                          + 1e-12)
            if bad.any():
                i = int(np.argmax(bad))
                raise ModelViolationError(
                    f"u*H0(psi)(u) is negative on [{a[i]:.6g}, {b[i]:.6g}] "
                    f"(min {low[i]:.3e}); k_psi would not be decreasing there")
            simp = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
            s2 = (mid - a) / 6.0 * (fa + 4.0 * f1 + fm) + \
                (b - mid) / 6.0 * (fm + 4.0 * f2 + fb)
            tol = 0.04 * self.k_tol * (b - a) / (1.0 + a)
            done = (np.abs(simp - s2) / 15.0 <= tol) | (depth >= self._MAX_DEPTH)
            # a done span stores the two halves its two-level value was
            # built from: each half's quadratic through (edge, quarter
            # point, edge) integrates to its Simpson term, so k(t) inside
            # a leaf meets the cumulative sum at its edges
            leaves += zip(a[done].tolist(), q1[done].tolist(), mid[done].tolist())
            leaves += zip(mid[done].tolist(), q2[done].tolist(), b[done].tolist())
            a, b = (np.concatenate([a[~done], mid[~done]]),
                    np.concatenate([mid[~done], b[~done]]))
            if not a.size:
                break
        m = self._mvals
        for lo, q, hi in sorted(leaves):
            half = (hi - lo) / 6.0 * (m[lo] + 4.0 * m[q] + m[hi])
            self._edges.append(hi)
            self._mids.append(q)
            self._panel_int.append(half)
            self._cum.append(self._cum[-1] + half)
        self._arrays = None

    def ensure(self, t):
        if t <= self._edges[-1]:
            return
        with self._lock:
            while self._edges[-1] < min(t, _T_CAP):
                # fixed ladder: t0 * growth^i, independent of the request
                lo = self._edges[-1]
                edges = np.geomspace(lo, min(lo * self._GROWTH, _T_CAP), 11)
                self._grow(edges[:-1], edges[1:])

    # -- evaluation ----------------------------------------------------

    def _leaf_arrays(self):
        """Left edges, widths, the cumulative integral at every edge, the
        integral of each leaf, and the coefficients of each leaf's
        Lagrange quadratic m = c0 + c1 s + c2 s^2 through its three
        values, in s = (t - a) / h. Built once per growth of the table."""
        with self._lock:
            if self._arrays is None:
                edges = np.array(self._edges)
                fa = np.array([self._mvals[a] for a in self._edges[:-1]])
                fm = np.array([self._mvals[m] for m in self._mids])
                fb = np.array([self._mvals[b] for b in self._edges[1:]])
                self._arrays = (edges[:-1], np.diff(edges),
                                np.array(self._cum), np.array(self._panel_int),
                                fa, -3.0 * fa + 4.0 * fm - fb,
                                2.0 * fa - 4.0 * fm + 2.0 * fb)
            return self._arrays

    def k(self, t):
        """k_psi(t) for t >= 0, a scalar or an array of t; beyond the
        1e8 cap, the value at the table's end."""
        tt = np.asarray(t, dtype=np.float64)
        if np.any(tt < 0.0):
            raise ValueError("k_psi is defined for t >= 0")
        if tt.size:
            self.ensure(float(tt.max()))
        a, h, cum, whole, c0, c1, c2 = self._leaf_arrays()
        i = np.minimum(np.searchsorted(a, tt, side="right") - 1, len(h) - 1)
        s = np.minimum((tt - a[i]) / h[i], 1.0)  # 1 past the table's end
        # capped at the leaf's stored integral, so rounding cannot lift k
        # above its value at the leaf's right edge
        part = np.minimum(_leaf_area(h[i], c0[i], c1[i], c2[i], s), whole[i])
        val = np.minimum(1.0 - (cum[i] + part), 1.0)
        return float(val) if tt.ndim == 0 else val

    def invert(self, u):
        """t with k(t) = u for each u in (0, 1); inf where u lies below
        the smallest k attainable at working precision.

        The table first grows as far as the smallest u needs: t doubles
        from 1 until k(t) <= u, up to the 1e8 cap. Each u then finds its
        leaf by a search on k at the leaf edges, and a bracketed Newton
        iteration solves the leaf's cubic k(t) = u inside it.
        """
        uu = np.asarray(u, dtype=np.float64)
        scalar = uu.ndim == 0
        uu = np.atleast_1d(uu)
        if not np.all((uu > 0.0) & (uu < 1.0)):
            raise ValueError("u must lie strictly inside (0, 1)")
        t = np.full(uu.shape, math.inf)
        ok = uu >= _U_FLOOR
        if ok.any():
            u_lo, hi = uu[ok].min(), 1.0
            while self.k(hi) > u_lo and 2.0 * hi <= _T_CAP:
                hi *= 2.0
            ok &= uu >= self.k(hi)
        if ok.any():
            a, h, cum, _, c0, c1, c2 = self._leaf_arrays()
            k_edge = 1.0 - cum
            v = uu[ok]
            # leaf i holds the root when k_edge[i] >= v > k_edge[i + 1]
            i = np.minimum(np.searchsorted(-k_edge, -v, side="right") - 1,
                           len(h) - 1)
            h, c0, c1, c2 = h[i], c0[i], c1[i], c2[i]
            r = k_edge[i] - v  # the integral of m from the leaf's edge to t

            def residual(j, s):
                area = _leaf_area(h[j], c0[j], c1[j], c2[j], s)
                return area - r[j], h[j] * (c0[j] + s * (c1[j] + s * c2[j]))

            whole = h * (c0 + 0.5 * c1 + c2 / 3.0)
            start = np.clip(np.divide(r, whole, out=np.full_like(r, 0.5),
                                      where=whole > 0.0), 0.0, 1.0)
            s = _newton_bracketed(residual, start, np.zeros_like(r),
                                  np.ones_like(r))
            t[ok] = a[i] + s * h
        return float(t[0]) if scalar else t


def _leaf_area(h, c0, c1, c2, s):
    # integral over [0, s] of the leaf quadratic c0 + c1 s + c2 s^2, times h
    return h * s * (c0 + s * (0.5 * c1 + s * c2 / 3.0))


def _newton_bracketed(fn, x, lo, hi):
    """Root of fn in [lo, hi], elementwise, for fn increasing there.

    fn(j, x) returns fn and its derivative for the elements j at x. A
    Newton step that leaves the bracket, which shrinks to each new
    iterate, is replaced by bisection; an element stops once its step is
    at most an ulp or lands on an end of the bracket. Elements never
    interact, so a batch gives the same bits as solving each element
    alone.
    """
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    j = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):  # Newton takes about 5; bisection 53 or more
            xj = x[j]
            g, dg = fn(j, xj)
            lo[j] = np.where(g < 0.0, xj, lo[j])
            hi[j] = np.where(g > 0.0, xj, hi[j])
            xn = np.where(g == 0.0, xj, xj - g / dg)
            # a step onto an end already evaluated means the root lies
            # within rounding of it: stop there
            landed = (xn == lo[j]) | (xn == hi[j])
            stray = ~landed & ~((xn > lo[j]) & (xn < hi[j]))
            xn = np.where(stray, 0.5 * (lo[j] + hi[j]), xn)
            x[j] = xn
            j = j[~landed & (np.abs(xn - xj) > _EPS * np.abs(xn))]
            if j.size == 0:
                break
    return x


_KPSI_LOCK = threading.Lock()


def _get_kpsi(psi, cfg, use_closed_form=False):
    # one lock around lookup and construction: two threads asking for the
    # same table must not both spend seconds building it
    key = (cfg, use_closed_form)
    with _KPSI_LOCK:
        cache = psi.__dict__.setdefault("_kpsi_cache", {})
        if key not in cache:
            cache[key] = KPsi(psi, cfg, use_closed_form)
        return cache[key]


def k_psi(psi: CharFn, t: float, cfg: QuadConfig = QuadConfig(),
          use_closed_form: bool = False):
    """k_psi(t) = 1 - int_0^t u H0(psi)(u) du, in (0, 1], decreasing."""
    if not math.isfinite(t) or t < 0:
        raise ValueError("t must be finite and >= 0")
    return _get_kpsi(psi, cfg, use_closed_form).k(t)


def invert_k(psi: CharFn, u, cfg: QuadConfig = QuadConfig(),
             use_closed_form: bool = False):
    """The unique t with k_psi(t) = u, for u in (0, 1); u may be an array.

    All u are inverted in one batch on the k table, to about an ulp (see
    KPsi.invert). Raises BracketError if some u lies below the smallest k
    attainable at working precision.
    """
    t = _get_kpsi(psi, cfg, use_closed_form).invert(u)
    if not np.all(np.isfinite(t)):
        raise BracketError(
            f"u={float(np.min(u)):.3e} is below the attainable infimum of "
            "the tabulated k at working precision")
    return t


# ---------------------------------------------------------------------------
# monotone cubic interpolation of a decreasing table

class TabulatedMonotone:
    """Strictly decreasing tabulated function with monotone piecewise
    cubic interpolation (Fritsch-Carlson) and guaranteed-bracket inversion.

    grid is ascending with grid[0] = 0; values are strictly decreasing in
    (0, 1] with values[0] = 1.
    """

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 3:
            raise ValueError("grid/values must be 1-d, equal length, >= 3 points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.diff(values) < 0):
            raise ValueError("values must be strictly decreasing")
        if grid[0] != 0.0 or values[0] != 1.0:
            raise ValueError("the table must anchor at (0, 1)")
        if values[-1] <= 0.0 or values[0] > 1.0:
            raise ValueError("values must stay in (0, 1]")
        self.grid = grid
        self.values = values
        self.d = self._fritsch_carlson(grid, values)

    @staticmethod
    def _fritsch_carlson(x, y):
        h = np.diff(x)
        delta = np.diff(y) / h
        n = len(x)
        d = np.zeros(n)
        for i in range(1, n - 1):
            if delta[i - 1] * delta[i] <= 0:
                d[i] = 0.0
            else:
                w1 = 2.0 * h[i] + h[i - 1]
                w2 = h[i] + 2.0 * h[i - 1]
                d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i])
        # one-sided endpoint slopes with shape clamp
        d[0] = ((2.0 * h[0] + h[1]) * delta[0] - h[0] * delta[1]) / (h[0] + h[1])
        if np.sign(d[0]) != np.sign(delta[0]):
            d[0] = 0.0
        elif abs(d[0]) > 3.0 * abs(delta[0]):
            d[0] = 3.0 * delta[0]
        d[-1] = ((2.0 * h[-1] + h[-2]) * delta[-1] - h[-1] * delta[-2]) / (h[-1] + h[-2])
        if np.sign(d[-1]) != np.sign(delta[-1]):
            d[-1] = 0.0
        elif abs(d[-1]) > 3.0 * abs(delta[-1]):
            d[-1] = 3.0 * delta[-1]
        return d

    def _cell(self, x):
        i = np.searchsorted(self.grid, x, side="right") - 1
        return np.clip(i, 0, len(self.grid) - 2)

    def _cubic(self, i, x):
        """Change from the left node value, and slope, of the cell-i
        Hermite cubic at x. The basis weights of the two node values sum
        to 1, so the change carries only their difference and keeps its
        digits where k is nearly flat (t near 0)."""
        h = self.grid[i + 1] - self.grid[i]
        s = (x - self.grid[i]) / h
        dy = self.values[i + 1] - self.values[i]
        d0, d1 = self.d[i] * h, self.d[i + 1] * h
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        rise = h01 * dy + h10 * d0 + h11 * d1
        slope = (6 * s * (1 - s) * dy + (1 - s) * (1 - 3 * s) * d0
                 + s * (3 * s - 2) * d1) / h
        return rise, slope

    def eval(self, x):
        """Interpolated value; x within [grid[0], grid[-1]]."""
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        i = self._cell(x)
        out = self.values[i] + self._cubic(i, x)[0]
        return float(out[0]) if scalar else out

    def invert(self, y):
        """x with eval(x) = y; guaranteed bracket inside one cell."""
        return float(self.invert_array(np.asarray([y]))[0])

    def invert_array(self, y):
        """x with eval(x) = y, elementwise: the cell is located by a
        search on the node values, then a Newton iteration on the cell's
        cubic, safeguarded by bisection, stays inside the cell and stops
        at about an ulp."""
        y = np.asarray(y, dtype=np.float64)
        if np.any(y > self.values[0]) or np.any(y < self.values[-1]):
            raise ValueError("inversion target outside the tabulated range")
        shape = y.shape
        y = y.ravel()
        # values descending: locate cells on the reversed array
        idx = len(self.values) - 1 - np.searchsorted(self.values[::-1], y,
                                                     side="left")
        idx = np.clip(idx, 0, len(self.grid) - 2)
        lo, hi = self.grid[idx], self.grid[idx + 1]
        y0, y1 = self.values[idx], self.values[idx + 1]
        start = np.clip(lo + (y0 - y) / (y0 - y1) * (hi - lo), lo, hi)
        below = y - y0

        def residual(j, x):
            # y - eval(x): eval decreases, so this increases with x
            rise, slope = self._cubic(idx[j], x)
            return below[j] - rise, -slope

        return _newton_bracketed(residual, start, lo, hi).reshape(shape)


# ---------------------------------------------------------------------------
# the solved parameter function

def solve_inverse(psi: CharFn, cfg: QuadConfig = QuadConfig(),
                  override_checks: bool = False,
                  use_closed_form: bool = False):
    """Construct f = k_psi^{-1} as a ParamFunction.

    f is the k table's own inverse: f.eval is KPsi.invert and f.inverse
    is KPsi.k, on the table that k_psi and invert_k share, so f.eval(u)
    equals invert_k(psi, u) to the bit. Where u lies below the smallest k
    attainable at working precision, f.eval gives inf, which the sampler
    resamples.
    """
    report = check_L(psi)
    for w in report.warnings:
        warnings.warn(w)
    if not report.passed and not override_checks:
        raise ModelViolationError(
            "psi fails the admissibility conditions:\n" + report.summary())

    kp = _get_kpsi(psi, cfg, use_closed_form)
    # local-integrability heuristic for the solved f: its values must stay
    # finite on shrinking neighbourhoods of the endpoints (the hypothesis
    # itself is a caller assertion, this only catches blatant violations)
    probe = np.concatenate([np.geomspace(1e-4, 0.1, 40),
                            1.0 - np.geomspace(1e-4, 0.1, 40)])
    if not np.all(np.isfinite(kp.invert(probe))):
        warnings.warn("solved f evaluates non-finite near the endpoints; "
                      "local integrability on (0,1) is in doubt")

    return ParamFunction(
        eval=kp.invert, epsilon_f=-1, inverse=kp.k,
        range_=(0.0, math.inf), integrability="L1_loc",
        f_id=f"kpsi_inverse:{psi.name}", char_decay=psi.decay)
