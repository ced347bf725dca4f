"""The inverse problem: build the sampler function from a target
characteristic function.

For an admissible target psi (even, nonnegative, psi(0)=1, with psi,
sqrt(t) psi and t psi integrable on (0, inf)), the map

    k_psi(t) = 1 - int_0^t u H0(psi)(u) du

is a decreasing bijection (0, inf) -> (0, 1), and f = k_psi^{-1} is the
parameter function whose sine-modulated sequence converges in law to the
distribution with density F1(psi)/sqrt(2pi).

k_psi is expensive (every integrand value is itself a Hankel quadrature),
so m(u) = u H0(psi)(u) is fitted by Chebyshev pieces over each span the
table grows by, and the fit is tabulated on an adaptively refined panel
grid with exact cumulative integrals of the local quadratic interpolant,
kept as one tuple of arrays that each growth replaces whole (KPsi);
inversions then cost microseconds.
"""

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ModelViolationError
from .limitlaw import ParamFunction
from .quadrature import QuadConfig, _integrate_rows
from .transforms import _HANKEL, RealFunction, _checked, _transform_rows

__all__ = ["CharFn", "TabulatedMonotone", "KPsi", "k_psi", "invert_k",
           "solve_inverse", "check_L", "LReport"]

_T_CAP = 1e8  # the k table grows no further
# k is evaluated as 1 minus a cumulative integral; below this floor the
# subtraction cannot represent u at all
_U_FLOOR = 100.0 * np.finfo(float).eps
_EPS = np.finfo(float).eps
# degree-16 Chebyshev interpolation at the 17 Clenshaw-Curtis points
# cos(j pi / 16): the values there times _CHEB are the coefficients
_CC = np.cos(np.arange(17) * np.pi / 16.0)
_CHEB = np.cos(np.outer(np.arange(17), np.arange(17)) * np.pi / 16.0) / 8.0
_CHEB[[0, 16]] /= 2.0
_CHEB[:, [0, 16]] /= 2.0


@dataclass(eq=False)
class CharFn(RealFunction):
    """A candidate limit characteristic function psi: a RealFunction with
    a name. The transforms take it as it is, and H0(psi) is always their
    numerical Hankel transform."""

    name: str = "psi"


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


def check_L(psi: CharFn):
    """Check the admissibility conditions for the inverse problem.

    Hard checks: psi(0)=1 (to 1e-12), evenness and nonnegativity on the
    grid, finiteness of int psi, int sqrt(t) psi, int t psi (numeric head
    plus a decay-class tail bound). Smoothness is sampled by finite
    differences and reported as a heuristic warning only.
    """
    grid = _default_grid(psi)
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

    # integrability of psi, sqrt(t) psi, t psi: the numeric heads in one
    # batched integral in s = sqrt(t), where the row 2 s^(2p+1) psi(s^2) of
    # t^p psi has no corner at 0, plus a decay-class tail bound
    t_max = float(grid[-1])
    d = psi.decay
    moments = [("psi in L1", 0.0, 1.0), ("sqrt(t) psi in L1", 0.5, 1.5),
               ("t psi in L1", 1.0, 2.0)]
    exps = np.array([2.0 * power + 1.0 for _, power, _ in moments])
    heads, _, _ = _integrate_rows(
        lambda s, rows: 2.0 * psi.eval_array(s * s) * s ** exps[rows][:, None],
        np.zeros(exps.size), np.full(exps.size, math.sqrt(t_max)), 1e-8, 1e-12,
        4000)
    for (label, power, p_needed), head in zip(moments, heads.tolist()):
        if d.kind == "algebraic" and d.scale <= p_needed:
            hard[label] = False
            details[label] = (f"algebraic decay p={d.scale} gives a "
                              f"divergent tail (needs p > {p_needed})")
            continue
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

    Each leaf holds m at its two edges and its midpoint; within a leaf,
    k integrates the interpolating quadratic in closed form. A growth
    first fits m on the whole span it adds by Chebyshev pieces, halved
    level by level with one batched H0 call per level, then refines the
    span by adaptive Simpson on the fit, with a position-weighted
    tolerance. The table extends itself along a fixed geometric landmark
    ladder, so its content is a function of the covered range only,
    never of the order in which callers requested it.

    The table is one tuple of arrays, `_table`: the leaf edges, the leaf
    widths, the cumulative integral at every edge, the integral of each
    leaf, and the coefficients of each leaf's quadratic m = c0 + c1 s +
    c2 s^2 in s = (t - a) / h. The edges, the cumulative integrals and
    c0 (m at the left edge) run one entry past the last leaf, to the
    table's end. A growth builds a new tuple and swaps it in with one
    assignment under the lock, so readers use whichever snapshot they
    took, a failed growth changes nothing, and concurrent builds
    reproduce the sequential table bit for bit.
    """

    _GROWTH = 1.7
    _MAX_DEPTH = 24

    def __init__(self, psi: CharFn, cfg: QuadConfig = QuadConfig()):
        self.psi = psi
        self.cfg = cfg
        self.k_tol = max(cfg.abs_tol, 1e-11)
        self._lock = threading.Lock()
        # no leaves yet: the table is the edge 0, where m(0) = 0 exactly
        empty = np.empty(0)
        self._table = (np.zeros(1), empty, np.zeros(1), empty, np.zeros(1),
                       empty, empty)
        self._h0_calls = 0
        d = psi.decay
        if d.kind == "gaussian":
            t0 = 6.0 * d.scale
        elif d.kind == "exponential":
            t0 = 8.0 / d.scale
        else:
            t0 = 8.0 * (1.0 + d.scale)
        self._grow(np.arange(49) * t0 / 48.0, 4)

    # -- m evaluation -------------------------------------------------

    def _m(self, u):
        """m at each u of the array u, in one batch. H0 is held to
        k_tol * 0.02 / (1 + u)^2, and a bound within 5 times that is
        accepted; ConvergenceError names the first u beyond it."""
        target = self.k_tol * 0.02 / (1.0 + u) ** 2
        self._h0_calls += u.size
        h, err = _transform_rows(_HANKEL, self.psi, u, target,
                                 np.maximum(target * 0.05, 1e-300), 1e-9,
                                 self.cfg.max_panels)
        _checked("hankel0", u, h, err, 5.0 * target, 1e-9)
        return u * h

    def _fit(self, cuts):
        """m on [cuts[0], cuts[-1]] as a function of an array of u:
        degree-16 Chebyshev pieces between the cuts, each halved until
        its two top coefficients meet the Simpson leaves' tolerance per
        unit width, 0.04 k_tol / (1 + its left edge)."""
        lo, hi, pieces = cuts[:-1], cuts[1:], []
        for depth in range(self._MAX_DEPTH + 1):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            v = self._m((mid[:, None] + np.outer(half, _CC)).ravel())
            coef = np.einsum("pj,jk->pk", v.reshape(-1, 17), _CHEB)
            done = (np.abs(coef[:, -2:]).max(axis=1) <= 0.04 * self.k_tol
                    / (1.0 + lo)) | (depth >= self._MAX_DEPTH)
            pieces.append(np.column_stack([lo, hi, coef])[done])
            lo, hi = (np.concatenate([x[~done], y[~done]]) for x, y in
                      ((lo, mid), (mid, hi)))
            if not lo.size:
                break
        fit = np.concatenate(pieces)
        fit = fit[np.argsort(fit[:, 0])]

        def m(u):
            # Clenshaw's recurrence in the piece of each u
            i = np.searchsorted(fit[:, 0], u, side="right") - 1
            lo, hi, *c = fit[np.clip(i, 0, len(fit) - 1)].T
            s, b1, b2 = (2.0 * u - lo - hi) / (hi - lo), 0.0, 0.0
            for ck in c[:0:-1]:
                b1, b2 = ck + 2.0 * s * b1 - b2, b1
            return c[0] + s * b1 - b2

        return m

    # -- table construction -------------------------------------------

    def _grow(self, span_edges, pieces):
        """Extend the table by leaves covering the adjacent spans between
        span_edges, the first the table's end, split breadth-first until the
        Simpson two-level disagreement of each meets the position-weighted
        tolerance, with m read from its fit begun on `pieces` equal
        pieces. Each span hands m at its edges and midpoint down to its
        two halves, so a level evaluates only its new quarter points;
        level 0 also its new edges and midpoints."""
        m = self._fit(np.linspace(span_edges[0], span_edges[-1], pieces + 1))
        a, b = span_edges[:-1], span_edges[1:]
        edges, _, _, whole, c0, c1, c2 = self._table
        leaves = []
        for depth in range(self._MAX_DEPTH + 1):
            mid = 0.5 * (a + b)
            q1, q2 = 0.5 * (a + mid), 0.5 * (mid + b)
            if depth:
                f1, f2 = np.split(m(np.concatenate([q1, q2])), 2)
            else:
                fb, fm, f1, f2 = np.split(
                    m(np.concatenate([b, mid, q1, q2])), 4)
                fa = np.concatenate([c0[-1:], fb[:-1]])
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
            halves = ((a, mid, fa, f1, fm), (mid, b, fm, f2, fb))
            leaves += [np.array(half)[:, done] for half in halves]
            go = ~done
            a, b, fa, fm, fb = (np.concatenate([x[go], y[go]]) for x, y in
                                zip(*halves))
            if not a.size:
                break
        leaf = np.concatenate(leaves, axis=1)
        lo, hi, fl, fq, fh = leaf[:, np.argsort(leaf[0])]
        edges = np.concatenate([edges, hi])
        whole = np.concatenate([whole, (hi - lo) / 6.0 * (fl + 4.0 * fq + fh)])
        self._table = (edges, np.diff(edges),
                       np.concatenate([[0.0], np.cumsum(whole)]), whole,
                       np.concatenate([c0, fh]),
                       np.concatenate([c1, -3.0 * fl + 4.0 * fq - fh]),
                       np.concatenate([c2, 2.0 * fl - 4.0 * fq + 2.0 * fh]))

    def _extend(self, short):
        """Grow the table along its fixed ladder, t0 * growth^i up to the
        1e8 cap, independent of the request, while short(table) holds."""
        def more():
            return self._table[0][-1] < _T_CAP and short(self._table)

        if more():
            with self._lock:
                while more():
                    lo = self._table[0][-1]
                    self._grow(np.geomspace(
                        lo, min(lo * self._GROWTH, _T_CAP), 11), 1)

    def ensure(self, t):
        self._extend(lambda table: table[0][-1] < t)

    # -- evaluation ----------------------------------------------------

    def k(self, t):
        """k_psi(t) in [0, 1] for t >= 0 (inf included), a scalar or an
        array of t; beyond the 1e8 cap, the value at the table's end.
        NaN or negative t raises ValueError. The table is accurate to an
        absolute tolerance, so deep in the tail 1 - cum can dip below 0
        by about that much; k is clamped there."""
        tt = np.asarray(t, dtype=np.float64)
        if not np.all(tt >= 0.0):
            raise ValueError("k_psi is defined for t >= 0 (not NaN)")
        if tt.size:
            self.ensure(float(tt.max()))
        a, h, cum, whole, c0, c1, c2 = self._table
        i = np.minimum(np.searchsorted(a, tt, side="right") - 1, len(h) - 1)
        s = np.minimum((tt - a[i]) / h[i], 1.0)  # 1 past the table's end
        # capped at the leaf's stored integral, so rounding cannot lift k
        # above its value at the leaf's right edge
        part = np.minimum(_leaf_area(h[i], c0[i], c1[i], c2[i], s), whole[i])
        val = np.clip(1.0 - (cum[i] + part), 0.0, 1.0)
        return float(val) if tt.ndim == 0 else val

    def invert(self, u):
        """t with k(t) = u for each u in (0, 1); inf where u lies below
        the smallest k attainable at working precision or at the 1e8 cap.

        The table grows along its ladder only while k at its end is above
        the smallest u. Each u then finds its leaf by a search on k at the
        leaf edges, and a bracketed Newton iteration solves the leaf's
        cubic k(t) = u inside it.
        """
        uu = np.asarray(u, dtype=np.float64)
        scalar = uu.ndim == 0
        uu = np.atleast_1d(uu)
        if not np.all((uu > 0.0) & (uu < 1.0)):
            raise ValueError("u must lie strictly inside (0, 1)")
        u_lo = uu[uu >= _U_FLOOR].min(initial=1.0)
        self._extend(lambda table: 1.0 - table[2][-1] > u_lo)
        a, h, cum, _, c0, c1, c2 = self._table
        k_edge = 1.0 - cum
        t = np.full(uu.shape, math.inf)
        ok = uu >= max(_U_FLOOR, k_edge[-1])
        if ok.any():
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


def _get_kpsi(psi, cfg):
    # one lock around lookup and construction: two threads asking for the
    # same table must not both spend seconds building it
    with _KPSI_LOCK:
        cache = psi.__dict__.setdefault("_kpsi_cache", {})
        if cfg not in cache:
            cache[cfg] = KPsi(psi, cfg)
        return cache[cfg]


def k_psi(psi: CharFn, t: float, cfg: QuadConfig = QuadConfig()):
    """k_psi(t) = 1 - int_0^t u H0(psi)(u) du, in [0, 1], non-increasing."""
    if not math.isfinite(t) or t < 0:
        raise ValueError("t must be finite and >= 0")
    return _get_kpsi(psi, cfg).k(t)


def invert_k(psi: CharFn, u, cfg: QuadConfig = QuadConfig()):
    """The unique t with k_psi(t) = u, for u in (0, 1); u may be an array.

    All u are inverted in one batch on the k table, to about an ulp (see
    KPsi.invert). Raises BracketError if some u lies below the smallest k
    attainable at working precision.
    """
    t = _get_kpsi(psi, cfg).invert(u)
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
                  override_checks: bool = False, on_report=None):
    """Construct f = k_psi^{-1} as a ParamFunction.

    f is the k table's own inverse: f.eval is KPsi.invert and f.inverse
    is KPsi.k, on the table that k_psi and invert_k share, so f.eval(u)
    equals invert_k(psi, u) to the bit. Where u lies below the smallest k
    attainable at working precision, f.eval gives inf, which the sampler
    resamples. on_report, if given, is called with the check_L report
    before its warnings and verdict are acted on.
    """
    report = check_L(psi)
    if on_report is not None:
        on_report(report)
    for w in report.warnings:
        warnings.warn(w)
    if not report.passed and not override_checks:
        raise ModelViolationError(
            "psi fails the admissibility conditions:\n" + report.summary())

    kp = _get_kpsi(psi, cfg)
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
        range_=(0.0, math.inf), f_id=f"kpsi_inverse:{psi.name}",
        char_decay=psi.decay)
