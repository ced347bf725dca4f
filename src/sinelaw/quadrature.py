"""Adaptive Gauss-Kronrod panels and Euler-accelerated lobe sums.

The work is batched, as numpy's cost is per call, not per point: one
adaptive routine integrates many intervals with one integrand call per
refinement round, and the lobe sums of many oscillatory integrals
integrate their lobes in blocks through it and take the Euler means of
a whole block of every open sum at once. `integrate` is the
one-interval case.

The 7/15 nodes and weights were generated from the Stieltjes polynomial
orthogonality conditions in exact rational arithmetic; test_quadrature
checks them by integrating monomials up to the rule's exactness degree.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError

# 15-point Kronrod nodes (ascending) with the 7-point Gauss rule embedded
# at the odd indices.
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0, 0.20778495500789848, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224,
])
_WG = np.zeros(15)
_WG[1::2] = [0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
             0.4179591836734694, 0.3818300505051189, 0.27970539148927664,
             0.1294849661688697]


class _Value:
    """A record frozen after __init__, equal and hashing alike by fields."""

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class QuadConfig(_Value):
    """Quadrature policy shared by the transform and limit-law routines,
    which split abs_tol themselves (the transforms give 1% to the tail)."""

    def __init__(self, abs_tol: float = 1e-10, rel_tol: float = 1e-10,
                 max_panels: int = 10_000):
        if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if max_panels < 1:
            raise ValueError("max_panels must be >= 1")
        vars(self).update(abs_tol=abs_tol, rel_tol=rel_tol,
                          max_panels=max_panels)


# most rows (intervals or lobe sums) one batched call takes, which bounds
# the panel arrays' memory; a row's result is the same in any batch
_T_BLOCK = 2048


def _blocks(n, solve, *per_row):
    # solve(i, *args) on rows i to i + _T_BLOCK of n, args the per_row
    # arguments there (a scalar or None is every row's), results joined
    out = [solve(i, *(x if np.ndim(x) == 0 else np.broadcast_to(
        x, (n,))[i:i + _T_BLOCK] for x in per_row))
        for i in range(0, n, _T_BLOCK)]
    return tuple(np.concatenate(z) for z in zip(*out))


def _gk_panels(f, a, b, rows):
    """GK15 on the panels [a, b], one panel per element: (value, error).

    `f(x, rows)` maps the (k, 15) node array of k panels, and the row
    each panel belongs to, to the (k, 15) integrand values. The weighted
    sums run along each panel's own 15 values, so a panel's result does
    not depend on which other panels share the call.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = f(c[:, None] + h[:, None] * _XK, rows)
    resk = h * (y * _WK).sum(axis=1)
    resg = h * (y * _WG).sum(axis=1)
    mean = np.divide(resk, b - a, out=np.zeros_like(resk), where=h != 0.0)
    resasc = np.abs(h) * (np.abs(y - mean[:, None]) * _WK).sum(axis=1)
    err = np.abs(resk - resg)
    # QUADPACK-style rescaling of |K15 - G7|, reliably conservative for
    # smooth integrands
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    return resk, err


def _one_row(f):
    # a scalar-interval integrand f(x) as a row integrand f(x, rows)
    return lambda x, rows: np.asarray(f(x.ravel()),
                                      dtype=np.float64).reshape(x.shape)


def _integrate_rows(f, a, b, abs_tol, rel_tol, max_panels, panels=None):
    """Adaptive GK15 on P independent intervals [a[i], b[i]] at once.

    `f(x, rows)` is as in _gk_panels; `rows` names the interval of each
    panel, so one integrand can differ per interval. Tolerances, panel
    budgets and `panels`, the number of equal panels each interval
    starts on (capped at its budget; one if None), broadcast to (P,).
    Each round bisects, with one integrand call, every panel of every
    unconverged interval whose error exceeds its share of that
    interval's tolerance: the tolerance max(abs_tol, rel_tol * |value|)
    over the interval's panel count. An interval stops once its summed
    error meets the tolerance or its panels reach its max_panels (the
    largest errors are split first when the budget is short). A panel
    too narrow to split keeps its error in the bound. The panels of an
    interval are summed in an order that depends on that interval alone,
    so its result is the same bits whichever intervals share the call;
    more than _T_BLOCK intervals are integrated _T_BLOCK at a time.

    Returns (values, error_bounds, panels_used), each of shape (P,).
    """
    pa = np.array(a, dtype=np.float64, ndmin=1)
    pb = np.array(b, dtype=np.float64, ndmin=1)
    n_rows = pa.size
    if n_rows > _T_BLOCK:
        return _blocks(n_rows, lambda i, *args: _integrate_rows(
            lambda x, rows: f(x, rows + i), *args), pa, pb, abs_tol,
            rel_tol, max_panels, panels)
    prow = np.arange(n_rows)
    used = np.ones(n_rows, dtype=np.intp)
    if panels is not None:
        used = np.minimum(np.broadcast_to(panels, (n_rows,)),
                          max_panels).astype(np.intp)
        # panel j of n spans fractions j / n to (j + 1) / n of its row
        prow = np.repeat(prow, used)
        j = np.arange(prow.size) - np.repeat(np.cumsum(used) - used, used)
        n, a, b, w = used[prow], pa[prow], pb[prow], (pb - pa)[prow]
        pa = a + w * (j / n)
        pb = np.where(j + 1 == n, b, a + w * ((j + 1) / n))
    pv, pe = _gk_panels(f, pa, pb, prow)
    active = np.ones(n_rows, dtype=bool)
    while True:
        total_v = np.bincount(prow, pv, n_rows)
        total_e = np.bincount(prow, pe, n_rows)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total_v))
        room = max_panels - used
        active &= (total_e > tol) & (room > 0)
        if not active.any():
            return total_v, total_e, used
        mid = 0.5 * (pa + pb)
        idx = np.flatnonzero(active[prow] & (pe > (tol / used)[prow])
                             & (mid != pa) & (mid != pb))
        # rows left with no panel worth splitting stop here, unconverged
        active &= np.bincount(prow[idx], minlength=n_rows) > 0
        # largest errors first within each row, up to the row's budget
        order = idx[np.lexsort((-pe[idx], prow[idx]))]
        r = prow[order]
        rank = np.arange(r.size) - np.searchsorted(r, r)
        idx = np.sort(order[rank < room[r]])
        r = prow[idx]
        lo = np.concatenate([pa[idx], mid[idx]])
        hi = np.concatenate([mid[idx], pb[idx]])
        rows = np.concatenate([r, r])
        cv, ce = _gk_panels(f, lo, hi, rows)
        k = idx.size
        # the left half takes its parent's slot, the right half is
        # appended: a row's panels keep an order of their own
        pb[idx], pv[idx], pe[idx] = mid[idx], cv[:k], ce[:k]
        pa = np.concatenate([pa, lo[k:]])
        pb = np.concatenate([pb, hi[k:]])
        pv = np.concatenate([pv, cv[k:]])
        pe = np.concatenate([pe, ce[k:]])
        prow = np.concatenate([prow, r])
        used += np.bincount(r, minlength=n_rows)


def integrate(f, a, b, abs_tol, rel_tol=1e-12, max_panels=10_000):
    """Adaptive GK15 quadrature of f over [a, b]: the one-interval case
    of _integrate_rows, f mapping a node array to values of its shape.

    Returns (value, error_bound, panels_used). If the tolerance cannot be
    met within the panel budget, raises ConvergenceError carrying the best
    estimate and its error bound.
    """
    v, e, n = _integrate_rows(_one_row(f), a, b, abs_tol, rel_tol, max_panels)
    total_v, total_e, n = float(v[0]), float(e[0]), int(n[0])
    if total_e > max(abs_tol, rel_tol * abs(total_v)):
        raise ConvergenceError(
            f"adaptive quadrature stalled at error {total_e:.3e} "
            f"(target {abs_tol:.3e}) after {n} panels",
            best=total_v, error_bound=total_e)
    return total_v, total_e, n


def _tol(abs_tol, rel_tol, x):
    # max(abs_tol, rel_tol * |x|) as Python's max takes it: NaN gives abs_tol
    r = rel_tol * np.abs(x)
    return np.where(r > abs_tol, r, abs_tol)


# row d: the Euler weights C(d, i) / 2^d, i = 0..d, in the last d + 1 of
# 61 columns, one per partial sum of the window that ends at term d; row d
# of Pascal's triangle is exact in int64, and so is its scaling by 2^-d
def _euler_weights():
    c = np.zeros((61, 62), dtype=np.int64)
    c[0, 60] = 1
    for d in range(1, 61):
        c[d, :61] = c[d - 1, :61] + c[d - 1, 1:]
    return np.ldexp(c[:, :61], -np.arange(61)[:, None])


_EULER = _euler_weights()

# lobes integrated per open problem and round of _lobe_sums; 8 covers the
# 7 terms every Euler sum takes before it may stop
_LOBE_BLOCK = 8


def _lobe_sums(f, edges, n, panel_tol, tail_tol, rel_tol, max_terms):
    """Euler-accelerated sums over lobes, for n problems at once.

    Lobe m of problem p spans edges(p, m), for index arrays p and m; an
    empty lobe (hi <= lo) contributes 0. f(x, p) is the integrand of
    problem p at nodes x, as in _gk_panels. Each round integrates the
    next _LOBE_BLOCK lobes of every open problem in one _integrate_rows
    call, lobe 0 on up to 1024 panels and the others on 256, at
    tolerance max(panel_tol, 1e-13 * the largest lobe of earlier
    rounds). The lobes are the terms of an alternating sum. Its top
    after term m is the binomial mean sum_i C(d, i) S_{m-d+i} / 2^d,
    d = min(m, 60), of its partial sums S: the Euler transform, whose
    window slides past 61 terms. The tops of a whole block come from one
    cumsum over the 61 weighted partial sums of each, which adds them
    in order and elementwise (a dot product would not), so a sum has
    the same bits in any batch. From term 7 on, a sum stops once its
    bound, 10 times the larger of the last two increments of its top
    (one can be a chance settling), is within max(tail_tol, rel_tol
    |top|), or two raw terms in a row are within 1/80 of that, when the
    plain sum is the value and its bound is within the tolerance too.
    panel_tol and tail_tol are per problem or one scalar for all. More
    than _T_BLOCK problems are summed _T_BLOCK at a time.

    Returns (values, error_bounds, lobes_used): each bound is the
    quadrature errors of the lobes the sum used plus 10 times the larger
    of its last two increments (40 times its last two terms at a raw
    stop). A sum still open after max_terms lobes returns its last top
    with the bound inf.
    """
    if n > _T_BLOCK:
        return _blocks(n, lambda i, *tols: _lobe_sums(
            lambda x, p: f(x, p + i), lambda p, m: edges(p + i, m),
            min(_T_BLOCK, n - i), *tols, rel_tol, max_terms),
            panel_tol, tail_tol)
    panel_tol = np.broadcast_to(panel_tol, (n,))
    tail_tol = np.broadcast_to(tail_tol, (n,))
    scale = np.zeros(n)
    sums = np.zeros((n, 60))  # the last 60 partial sums, 0 before the first
    last = np.zeros((4, n))  # the last top, increment and |term|; lobe errors
    out = np.array([np.zeros(n), np.full(n, math.inf), np.full(n, max_terms)])
    todo = np.arange(n)  # the open problems

    def after(first, cols):
        # the predecessor of each column: first, then all columns but the last
        return np.column_stack([first, cols[:, :-1]])

    for m0 in range(0, max_terms, _LOBE_BLOCK):
        m = np.arange(m0, min(m0 + _LOBE_BLOCK, max_terms))
        p = np.repeat(todo, m.size)
        mp = np.tile(m, todo.size)
        lo, hi = edges(p, mp)
        v, e = np.zeros((2, todo.size, m.size))
        live = hi > lo
        if live.any():
            pl = p[live]
            v.ravel()[live], e.ravel()[live], _ = _integrate_rows(
                lambda x, rows: f(x, pl[rows]), lo[live], hi[live],
                np.maximum(panel_tol[pl], 1e-13 * scale[pl]), 1e-13,
                np.where(mp[live] == 0, 1024, 256))
        scale[todo] = np.maximum(scale[todo], np.abs(v).max(axis=1))
        top0, inc0, size0, err0 = last[:, todo]
        # the last 60 partial sums, then the block's
        s = np.column_stack([sums[todo], v])
        s[:, 60:] = np.cumsum(s[:, 59:], axis=1)[:, 1:]
        err = np.cumsum(np.column_stack([err0, e]), axis=1)[:, 1:]
        weighted = (sliding_window_view(s, 61, axis=1)
                    * _EULER[np.minimum(m, 60)])
        top = np.cumsum(weighted, axis=2)[:, :, -1]
        # inc2 and size2 are one term behind inc and size
        inc = np.abs(top - after(top0, top))
        inc2 = after(inc0, inc)
        size = np.abs(v)
        size2 = after(size0, size)
        tt = tail_tol[todo, None]
        small = _tol(tt, rel_tol, s[:, 60:]) / 80.0
        raw = (m >= 6) & (size <= small) & (size2 <= small)
        bound = 10.0 * np.where(raw, 4.0 * (size + size2),
                                np.maximum(inc, inc2))
        stop = raw | ((m >= 6) & (bound <= _tol(tt, rel_tol, top)))
        j = stop.argmax(axis=1)
        r = np.flatnonzero(stop[np.arange(todo.size), j])
        j, q = j[r], todo[r]
        out[0, q] = np.where(raw[r, j], s[r, 60 + j], top[r, j])
        out[1, q] = bound[r, j] + err[r, j]
        out[2, q] = m[j] + 1
        last[:, todo] = top[:, -1], inc[:, -1], size[:, -1], err[:, -1]
        sums[todo] = s[:, -60:]
        todo = np.delete(todo, r)
        if not todo.size:
            break
    out[0, todo] = last[0, todo]
    return out[0], out[1], out[2].astype(np.intp)
