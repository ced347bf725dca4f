"""The inverse problem: build the sampler function from a target
characteristic function.

For an admissible target psi (even, nonnegative, psi(0)=1, with psi,
sqrt(t) psi and t psi integrable on (0, inf)), the map

    k_psi(t) = 1 - int_0^t u H0(psi)(u) du

is a decreasing bijection (0, inf) -> (0, 1), and f = k_psi^{-1} is the
parameter function whose sine-modulated sequence converges in law to the
distribution with density F1(psi)/sqrt(2pi).

k_psi is expensive (every integrand value is itself a Hankel quadrature),
so KPsi fits m(u) = u H0(psi)(u) by Chebyshev pieces, integrated
exactly, and f by polynomial pieces on the binary octaves of u: f.eval
costs one Horner sweep per u.
"""

import math
import threading
import warnings

import numpy as np

from .errors import BracketError, ConvergenceError, ModelViolationError
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
_YS = _CC[::-1] + 1.0  # the nodes in y = s + 1, ascending
_CHEB = np.cos(np.outer(np.arange(17), np.arange(17)) * np.pi / 16.0) / 8.0
_CHEB[[0, 16]] /= 2.0
_CHEB[:, [0, 16]] /= 2.0
# the integrals over [-1, 1] of the T_k; and, coefficients times
# _ANTIDERIV, those of the integral from -1 over s + 1, which keeps its
# digits near -1 (row k: 2 j (-1)^(k-j) / (k^2 - 1) at 0 < j < k and
# 1 / (k + 1) at j = k)
_CC_WEIGHTS = np.zeros(17)
_CC_WEIGHTS[::2] = 2.0 / (1.0 - np.arange(0.0, 17.0, 2.0) ** 2)
_k, _j = np.ogrid[:17, :17]
_ANTIDERIV = np.diag(1.0 / (_j[0] + 1.0)) + np.where(
    (0 < _j) & (_j < _k), 2.0 * _j * (-1.0) ** (_k - _j), 0.0
) / np.maximum(_k * _k - 1, 1)
_ANTIDERIV[1, 0] = -0.5
# f pieces of degree 20 on the binary octaves of u down to 2^-14: they
# interpolate near the Chebyshev points of the first kind and are checked
# at the extrema of T_21 between them
_F_DEG, _F_OCTAVES = 20, 14
_F_LOW = 2.0 ** -_F_OCTAVES
_F_NODES = np.cos((np.arange(_F_DEG + 1) + 0.5) * np.pi / (_F_DEG + 1))
_F_BETWEEN = np.cos(np.arange(1, _F_DEG + 1) * np.pi / (_F_DEG + 1))


class CharFn(RealFunction):
    """A candidate limit characteristic function psi: a RealFunction with
    a name. The transforms take it as it is, and H0(psi) is always their
    numerical Hankel transform."""

    def __init__(self, eval, decay, name="psi"):
        super().__init__(eval, decay)
        self.name = name


# ---------------------------------------------------------------------------
# conditions (L) report

class LReport:
    """Outcome of the admissibility checks for a target psi.

    `hard` holds pass/fail of the machine-checkable conditions;
    `warnings` holds heuristic flags (sampled smoothness is one: a C1
    check from an evaluator can only ever be a heuristic).
    """

    def __init__(self, hard: dict, warnings: list, details: dict):
        self.hard, self.warnings, self.details = hard, warnings, details

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
    """Tabulated k_psi(t) = 1 - int_0^t m, with m(u) = u * H0(psi)(u),
    and its inverse f as polynomial pieces.

    The table is a run of degree-16 Chebyshev pieces of m, halved level
    by level (one batched H0 call per level) until each meets its
    tolerance, and integrated exactly: Clenshaw-Curtis weights give the
    integral up to each edge, Clenshaw's recurrence on the antiderivative
    k inside a piece. It grows along a fixed geometric ladder, so its
    content depends on the covered range only, not on the call order.

    f = k^-1 is 14 degree-20 pieces: f = sqrt(v) p(4 v - 1), v = 1 - u,
    on [1/2, 1), where f has a square-root end at u = 1, and one piece
    per binary octave of u below, down to 2^-14. They interpolate exact
    points (k(t), t) of the table near their nodes, built once the table
    covers k <= 2^-14, so they depend on the table alone. A piece whose
    residual in k over m exceeds 0.0025 k_tol (1 + f) between its nodes
    is left to Newton, which also serves u below 2^-14.

    `_table` is one tuple: the edges, the integral of m up to each, per
    piece the coefficients of m and of its integral from the left edge
    over s + 1, and the f pieces (None until built). Growths and the f
    build swap in a new tuple under the lock: readers keep the snapshot
    they took, a failed growth changes nothing, and concurrent builds
    reproduce the sequential table bit for bit.
    """

    _GROWTH = 1.7
    _MAX_DEPTH = 24

    def __init__(self, psi: CharFn, cfg: QuadConfig = QuadConfig()):
        self.psi = psi
        self.cfg = cfg
        self.k_tol = max(cfg.abs_tol, 1e-11)
        self._lock = threading.Lock()
        # no pieces yet: the table is the edge 0, where k = 1
        self._table = (np.zeros(1), np.zeros(1), np.empty((0, 2, 17)), None)
        self._h0_calls = 0
        d = psi.decay
        if d.kind == "gaussian":
            t0 = 6.0 * d.scale
        elif d.kind == "exponential":
            t0 = 8.0 / d.scale
        else:
            t0 = 8.0 * (1.0 + d.scale)
        self._grow(np.linspace(0.0, t0, 5))

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
        """m on [cuts[0], cuts[-1]] as degree-16 Chebyshev pieces, one row
        (left edge, right edge, 17 coefficients) each, in order: the
        pieces between the cuts, each halved until its two top
        coefficients are within 0.04 k_tol / (1 + its left edge) per unit
        width. m at the nodes of every piece must not be negative beyond
        the noise the H0 tolerance allows (ModelViolationError). A piece
        whose top coefficients exceed half theirs two halvings before has
        met H0's noise: ConvergenceError names its span."""
        lo, hi, pieces = cuts[:-1], cuts[1:], []
        tops = np.full((2, lo.size), np.inf)  # of each parent, grandparent
        for depth in range(self._MAX_DEPTH + 1):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            v = self._m((mid[:, None] + np.outer(half, _CC)).ravel())
            v = v.reshape(-1, 17)
            low = v.min(axis=1)
            bad = low < -(40.0 * (1.0 + hi) * self.k_tol * 0.02 / (1.0 + lo)
                          + 1e-12)
            if bad.any():
                i = int(np.argmax(bad))
                raise ModelViolationError(
                    f"u*H0(psi)(u) is negative on [{lo[i]:.6g}, {hi[i]:.6g}] "
                    f"(min {low[i]:.3e}); k_psi would not be decreasing there")
            coef = np.einsum("pj,jk->pk", v, _CHEB)
            top = np.abs(coef[:, -2:]).max(axis=1)
            done = (top <= 0.04 * self.k_tol / (1.0 + lo)) | (
                depth >= self._MAX_DEPTH)
            stall = ~done & (top > 0.5 * tops[1])
            if stall.any():
                i = int(np.argmax(stall))
                raise ConvergenceError(
                    f"hankel0 noise stalls the k_psi fit on [{lo[i]:.6g}, "
                    f"{hi[i]:.6g}]: its top coefficients do not shrink")
            tops = np.tile([top[~done], tops[0][~done]], 2)
            pieces.append(np.column_stack([lo, hi, coef])[done])
            lo, hi = (np.concatenate([x[~done], y[~done]]) for x, y in
                      ((lo, mid), (mid, hi)))
            if not lo.size:
                break
        fit = np.concatenate(pieces)
        return fit[np.argsort(fit[:, 0])]

    # -- table construction -------------------------------------------

    def _grow(self, cuts):
        """Extend the table, whose end is cuts[0], by the fit begun on the
        cuts. A piece integral below 0 is the transform's noise where m
        is about 0: it counts as 0, so k never rises from edge to edge."""
        fit = self._fit(cuts)
        half, coef = 0.5 * (fit[:, 1] - fit[:, 0]), fit[:, 2:]
        whole = half * np.einsum("pk,k->p", coef, _CC_WEIGHTS)
        edges, cum, pieces, f_pieces = self._table
        area = half[:, None] * np.einsum("pj,jk->pk", coef, _ANTIDERIV)
        self._table = (
            np.concatenate([edges, fit[:, 1]]),
            np.concatenate([cum[:-1], np.cumsum(np.concatenate(
                [cum[-1:], np.maximum(whole, 0.0)]))]),
            np.concatenate([pieces, np.stack([coef, area], axis=1)]),
            f_pieces)

    def _extend(self, short, with_f=False):
        """The table, grown along its fixed ladder, t0 * growth^i up to the
        1e8 cap, while short(table) holds, and given its f pieces if
        with_f and they are missing."""
        def more():
            return self._table[0][-1] < _T_CAP and short(self._table)

        if more() or (with_f and self._table[-1] is None):
            with self._lock:
                while more():
                    lo = self._table[0][-1]
                    self._grow(np.array([lo, min(lo * self._GROWTH, _T_CAP)]))
                if with_f and self._table[-1] is None:
                    # between the check points the error can reach twice
                    # theirs: they are held to a quarter of the bound
                    self._table = self._table[:-1] + (
                        self._f_pieces(0.0025 * self.k_tol),)
        return self._table

    def ensure(self, t):
        self._extend(lambda table: table[0][-1] < t)

    # -- evaluation ----------------------------------------------------

    def k(self, t):
        """k_psi(t) in [0, 1] for t >= 0 (inf included), a scalar or an
        array of t; beyond the 1e8 cap, the value at the table's end.
        NaN or negative t raises ValueError. The table is accurate to an
        absolute tolerance, so deep in the tail k can dip below 0 by
        about that much; k is clamped there."""
        tt = np.asarray(t, dtype=np.float64)
        if not np.all(tt >= 0.0):
            raise ValueError("k_psi is defined for t >= 0 (not NaN)")
        if tt.size:
            self.ensure(float(tt.max()))
        edges, cum, pieces, _ = self._table
        i = np.minimum(np.searchsorted(edges, tt, side="right") - 1,
                       len(pieces) - 1).ravel()
        lo, hi = edges[i], edges[i + 1]
        s = 2.0 * ((np.minimum(tt.ravel(), edges[-1]) - lo) / (hi - lo)) - 1.0
        # held between k at the piece's edges, so rounding cannot make k
        # rise across an edge; at an edge, k there, whether or not the
        # table has grown past it
        val = np.clip(1.0 - (cum[i] + (s + 1.0) * _clenshaw(pieces[i, 1], s)),
                      1.0 - cum[i + 1], 1.0 - cum[i])
        val = np.where(tt.ravel() >= edges[-1], 1.0 - cum[-1], val)
        val = np.clip(val, 0.0, 1.0).reshape(tt.shape)
        return float(val) if tt.ndim == 0 else val

    def invert(self, u):
        """t with k(t) = u for each u in (0, 1), a scalar or an array: one
        frexp, one index and one Horner sweep of its f piece, or newton
        below 2^-14 and where the piece was left to it."""
        uu = np.asarray(u, dtype=np.float64)
        scalar = uu.ndim == 0
        uu = np.atleast_1d(uu)
        if not np.all((uu > 0.0) & (uu < 1.0)):
            raise ValueError("u must lie strictly inside (0, 1)")
        coef, ok = self._extend(lambda table: 1.0 - table[1][-1] > _F_LOW,
                                with_f=True)[-1]
        t, i = _f_horner(coef, uu)
        slow = (uu < _F_LOW) | ~ok[i]
        if slow.any():
            t[slow] = self.newton(uu[slow])
        return float(t[0]) if scalar else t

    def newton(self, u):
        """The root t of k(t) = u on the table for each u of an array, to
        about an ulp; inf where u lies below the smallest k attainable at
        working precision or at the 1e8 cap, as the table grows along its
        ladder only while k at its end is above the smallest u. Each u
        finds its piece by a search on the integral of m at the edges,
        and bracketed Newton solves int_0^t m = 1 - u in the piece, which
        is exact for u >= 1/2."""
        u_lo = u[u >= _U_FLOOR].min(initial=1.0)
        edges, cum, pieces, _ = table = self._extend(
            lambda table: 1.0 - table[1][-1] > u_lo)
        t = np.full(u.shape, math.inf)
        ok = u >= max(_U_FLOOR, 1.0 - cum[-1])
        if ok.any():
            i, y, r, half, _ = _start(table, 1.0 - u[ok])

            # Newton in y = s + 1, on [0, 2], where an ulp of y is about
            # the precision of the residual
            def residual(j, y):
                m, area = _clenshaw(pieces[i[j]], y[:, None] - 1.0).T
                return y * area - r[j], half[j] * m

            y = _newton_bracketed(residual, y, np.zeros_like(r),
                                  np.full_like(r, 2.0))
            t[ok] = edges[i] + y * half
        return t

    def _f_pieces(self, tol):
        """The f pieces, built under the lock on a table that covers
        k <= 2^-14: the monomial coefficients, a row per power from the
        highest down and a column per piece, and whether each piece is
        within tol (1 + f) of the table's root between its nodes, taken
        as the residual of k over m. A piece interpolates exact points
        (k(t), t) of the table, one Newton step from newton's start at
        its nodes, and is not ok unless these run monotone in x."""
        table = edges, cum, pieces, _ = self._table
        j, n = np.arange(_F_OCTAVES)[:, None], _F_DEG + 1
        x = np.concatenate([_F_NODES, _F_BETWEEN])
        # octave j: u = 2^-j (x + 3) / 4; the top piece: 1 - u = (x + 1) / 4
        u = np.where(j == 0, 1.0 - 0.25 * (x + 1.0),
                     np.ldexp(0.25 * (x + 3.0), -j))
        i, y, r, half, c = _start(table, 1.0 - u[:, :n].ravel())
        with np.errstate(all="ignore"):
            m, area = _clenshaw(pieces[i], y[:, None] - 1.0).T
            step = y - (y * area - r) / (half * m)
            y = np.where((m > 0.0) & np.isfinite(step),
                         np.clip(step, _YS[c - 1], _YS[c]), y)
            w = cum[i] + y * _clenshaw(pieces[i, 1], y - 1.0)
            w, t = (v.reshape(j.size, n) for v in (w, edges[i] + y * half))
            x = np.where(j == 0, 4.0 * w - 1.0,
                         np.ldexp(4.0 * (1.0 - w), j) - 3.0)
            ok = np.all(np.diff(x, axis=1) < 0.0, axis=1)
            x = np.where(ok[:, None], x, _F_NODES)  # a solvable stand-in
            pw = np.multiply.accumulate(np.repeat(x[..., None], _F_DEG, 2), 2)
            coef = np.linalg.solve(np.dstack([pw[..., ::-1], np.ones_like(x)]),
                                   (t / np.where(j == 0, np.sqrt(w), 1.0))[
                                       ..., None])[..., 0].T
            th = _f_horner(coef, u[:, n:])[0]
            k = np.clip(np.searchsorted(edges, th, side="right") - 1, 0,
                        len(pieces) - 1)
            s = 2.0 * (th - edges[k]) / (edges[k + 1] - edges[k]) - 1.0
            m, area = np.moveaxis(_clenshaw(pieces[k], s[..., None]), -1, 0)
            # the residual in 1 - u, which newton solves against as rounded
            miss = np.abs(1.0 - u[:, n:] - cum[k] - (s + 1.0) * area) / m
            ok &= np.all(np.isfinite(coef), axis=0) & np.all(
                (m > 0.0) & (miss <= tol * (1.0 + th)), axis=1)
        return coef, ok


def _start(table, w):
    """For each w = 1 - u of an array, on the table: the first piece i
    with cum[i] < w <= cum[i + 1], which holds the root of int_0^t m = w,
    r = w - cum[i], the piece's half width, a start y = s + 1 in [0, 2]
    by linear interpolation of its integral between the nodes _YS, and
    the index c of the node above y."""
    edges, cum, pieces, _ = table
    i = np.minimum(np.searchsorted(cum, w) - 1, len(pieces) - 1)
    r, half = w - cum[i], 0.5 * (edges[i + 1] - edges[i])
    area = (_YS * _clenshaw(pieces[:, 1, None, :], _YS - 1.0))[i]
    c = np.clip((area < r[:, None]).sum(axis=1), 1, 16)
    a0, a1 = np.take_along_axis(area, np.stack([c - 1, c], 1), 1).T
    y = _YS[c - 1] + (_YS[c] - _YS[c - 1]) * np.divide(
        r - a0, a1 - a0, out=np.zeros_like(r), where=a1 > a0)
    return i, np.clip(y, 0.0, 2.0), r, half, c


def _clenshaw(coef, s):
    # sum_k coef[..., k] T_k(s), over the last axis of coef
    b1, b2, s2 = 0.0, 0.0, 2.0 * s
    for k in range(coef.shape[-1] - 1, 0, -1):
        b1, b2 = coef[..., k] + s2 * b1 - b2, b1
    return coef[..., 0] + s * b1 - b2


def _f_horner(coef, u):
    # the f pieces at each u, with each u's piece index, clipped to the
    # lowest octave
    mant, e = np.frexp(u)
    i = np.minimum(-e, _F_OCTAVES - 1)
    v = 1.0 - u  # exact where it is used, u >= 1/2
    x = np.where(e == 0, 4.0 * v - 1.0, 4.0 * mant - 3.0)
    t = np.take(coef[0], i)
    for row in coef[1:]:
        t *= x
        t += np.take(row, i)
    return np.where(e == 0, np.sqrt(v) * t, t), i


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

    All u are inverted in one batch by KPsi.invert, within 0.01 k_tol
    (1 + t) of Newton's root on the k table. Raises BracketError if some
    u lies below the smallest k attainable at working precision.
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

    f is the k table's own inverse: f.eval is KPsi.invert, the f pieces
    of the table that k_psi and invert_k share, and f.inverse is KPsi.k,
    so f.eval(u) equals invert_k(psi, u) to the bit. Where u lies below
    the smallest k attainable at working precision, f.eval gives inf,
    which the sampler resamples. on_report, if given, is called with the
    check_L report before its warnings and verdict are acted on.
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

    return ParamFunction(eval=kp.invert, epsilon_f=-1, inverse=kp.k,
                         f_id=f"kpsi_inverse:{psi.name}")
