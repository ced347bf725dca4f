"""Adaptive Gauss-Kronrod panels and Euler-accelerated alternating sums.

The work is batched: one adaptive routine integrates many independent
intervals at once, with one integrand call per refinement round, and the
lobe sums of many oscillatory integrals integrate their lobes in blocks
through it. Numpy's cost is per call, not per point, so large batches
are what make the pure-numpy kernels fast. The public scalar functions
are the one-interval case.

The 7/15 nodes and weights were generated from the Stieltjes polynomial
orthogonality conditions in exact rational arithmetic and are full
float64 precision; test_quadrature checks them by integrating monomials
up to the rule's exactness degree.
"""

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature policy shared by the transform and limit-law routines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_panels: int = 10_000
    truncation_tail_tol: float = 1e-12

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0
                and self.truncation_tail_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")


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


def gk15(f, a, b):
    """One Gauss-Kronrod 7/15 panel: returns (integral, error_estimate).

    `f` maps a node array to a value array. The error estimate is the
    QUADPACK-style rescaling of |K15 - G7|, which is reliably
    conservative for smooth integrands.
    """
    v, e = _gk_panels(_one_row(f), np.array([float(a)]), np.array([float(b)]),
                      np.zeros(1, dtype=np.intp))
    return float(v[0]), float(e[0])


def _integrate_rows(f, a, b, abs_tol, rel_tol, max_panels):
    """Adaptive GK15 on P independent intervals [a[i], b[i]] at once.

    `f(x, rows)` is as in _gk_panels; `rows` names the interval of each
    panel, so one integrand can differ per interval. Tolerances and
    panel budgets broadcast to (P,). Each round bisects, with one
    integrand call, every panel of every unconverged interval whose
    error exceeds its share of that interval's tolerance: the tolerance
    max(abs_tol, rel_tol * |value|) over the interval's panel count. An
    interval stops once its summed error meets the tolerance or its
    panels reach its max_panels (the largest errors are split first when
    the budget is short). A panel too narrow to split keeps its error in
    the bound. The panels of an interval are summed in an order that
    depends on that interval alone, so its result is the same bits
    whichever intervals share the call.

    Returns (values, error_bounds, panels_used), each of shape (P,).
    """
    pa = np.array(a, dtype=np.float64, ndmin=1)
    pb = np.array(b, dtype=np.float64, ndmin=1)
    n_rows = pa.size
    prow = np.arange(n_rows)
    pv, pe = _gk_panels(f, pa, pb, prow)
    used = np.ones(n_rows, dtype=np.intp)
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


def integrate(f, a, b, abs_tol, rel_tol=1e-12, max_panels=10_000,
              raise_on_failure=True):
    """Adaptive GK15 quadrature of f over [a, b].

    The one-interval case of the batched routine _integrate_rows: each
    round bisects every panel whose error is above its share (the
    tolerance max(abs_tol, rel_tol * |value|) over the panel count), in
    one call of f on the nodes of all the halves. `f` maps a node array
    to a value array of its shape.

    Returns (value, error_bound, panels_used). If the tolerance cannot be
    met within the panel budget, raises ConvergenceError carrying the best
    estimate, or returns it when raise_on_failure is false.
    """
    v, e, n = _integrate_rows(_one_row(f), a, b, abs_tol, rel_tol, max_panels)
    total_v, total_e, n = float(v[0]), float(e[0]), int(n[0])
    if total_e > max(abs_tol, rel_tol * abs(total_v)) and raise_on_failure:
        raise ConvergenceError(
            f"adaptive quadrature stalled at error {total_e:.3e} "
            f"(target {abs_tol:.3e}) after {n} panels",
            best=total_v, error_bound=total_e)
    return total_v, total_e, n


def euler_alternating(term, abs_tol, rel_tol=0.0, max_terms=10_000,
                      min_terms=7):
    """Sum sum_m term(m) for an eventually-alternating sequence.

    Maintains the iterated-mean (Euler transform) table of the partial
    sums; the top entry converges geometrically for smooth alternating
    tails. Stops when the accelerated increment is below tolerance.
    Returns (value, increment, terms_used).
    """
    row = []
    total = 0.0
    prev = None
    prev_term = math.inf
    for m in range(max_terms):
        t = term(m)
        total += t
        tol_now = max(abs_tol, rel_tol * abs(total))
        if (m + 1 >= min_terms and abs(t) <= 0.25 * tol_now
                and prev_term <= 0.25 * tol_now):
            # raw terms already negligible: the plain sum beats the
            # averaged table (whose memory of early partial sums decays
            # only like 2^-m)
            return total, 4.0 * (abs(t) + prev_term), m + 1
        prev_term = abs(t)
        row.append(total)
        for i in range(len(row) - 2, -1, -1):
            row[i] = 0.5 * (row[i] + row[i + 1])
        best = row[0]
        if prev is not None:
            inc = abs(best - prev)
            if m + 1 >= min_terms and inc <= max(abs_tol, rel_tol * abs(best)):
                return best, inc, m + 1
        prev = best
        if len(row) > 60:
            # cap table depth; older rows no longer influence the top
            row.pop()
    raise ConvergenceError(
        f"alternating series did not settle in {max_terms} terms",
        best=row[0], error_bound=abs(row[0] - prev) if prev is not None else None)


# lobes integrated per open problem and round of _lobe_sums; 8 covers the
# 7 terms every Euler sum takes before it may stop
_LOBE_BLOCK = 8


def _lobe_sums(f, edges, n, panel_tol, tail_tol, rel_tol, max_terms):
    """Euler-accelerated sums over lobes, for n problems at once.

    Lobe m of problem p spans edges(p, m), for index arrays p and m; an
    empty lobe (hi <= lo) contributes 0. f(x, p) is the integrand of
    problem p at nodes x, as in _gk_panels. Each round integrates lobes
    m0 .. m0 + _LOBE_BLOCK - 1 of every open problem in one
    _integrate_rows call, lobe 0 on up to 1024 panels and the others on
    256, at tolerance max(panel_tol, 1e-13 * the largest lobe of earlier
    rounds); then euler_alternating(tail_tol, rel_tol, max_terms) runs
    over each open problem's lobes, and the problem closes once its sum
    settles within them. panel_tol and tail_tol are per problem or one
    scalar for all. A problem's lobes and sum never depend on the other
    problems.

    Returns (values, error_bounds, lobes_used): each bound is 10 times
    the last Euler increment plus the quadrature errors of the lobes the
    sum used.
    """
    panel_tol = np.broadcast_to(panel_tol, (n,))
    tail_tol = np.broadcast_to(tail_tol, (n,))
    lobes = [[] for _ in range(n)]
    errs = [[] for _ in range(n)]
    scale = np.zeros(n)
    out = np.zeros((3, n))
    todo = np.arange(n)
    m0 = 0
    while todo.size:
        m = np.arange(m0, min(m0 + _LOBE_BLOCK, max_terms))
        p = np.repeat(todo, m.size)
        mp = np.tile(m, todo.size)
        lo, hi = edges(p, mp)
        v, e = np.zeros(p.size), np.zeros(p.size)
        live = hi > lo
        if live.any():
            pl = p[live]
            v[live], e[live], _ = _integrate_rows(
                lambda x, rows: f(x, pl[rows]), lo[live], hi[live],
                np.maximum(panel_tol[pl], 1e-13 * scale[pl]), 1e-13,
                np.where(mp[live] == 0, 1024, 256))
        v, e = v.reshape(todo.size, m.size), e.reshape(todo.size, m.size)
        scale[todo] = np.maximum(scale[todo], np.abs(v).max(axis=1))
        still = []
        for q, vq, eq in zip(todo, v.tolist(), e.tolist()):
            lobes[q] += vq
            errs[q] += eq
            try:
                # an IndexError asks for lobes past those integrated
                val, inc, k = euler_alternating(
                    lobes[q].__getitem__, tail_tol[q], rel_tol=rel_tol,
                    max_terms=max_terms)
            except IndexError:
                still.append(q)
                continue
            out[:, q] = val, 10.0 * inc + sum(errs[q][:k]), k
        todo = np.array(still, dtype=np.intp)
        m0 += _LOBE_BLOCK
    return out[0], out[1], out[2].astype(np.intp)
