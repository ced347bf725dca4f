"""Goodness-of-fit checks: exact KS statistic, empirical characteristic
function, and the reference target distributions.

The normal CDF needs erf, which is the stdlib's math.erf mapped over
the values, so the package carries no special-function dependency.
"""

import math
from typing import Callable, Optional

import numpy as np

from .sampler import SampleBatch

__all__ = ["erf", "TargetDistribution", "ks_statistic", "ecf",
           "target_library"]


def erf(x):
    """Error function, abs error <= 2e-16; a float for a scalar, else an
    array of x's shape: the stdlib's math.erf mapped over the values into
    one float64 buffer, with no object array between."""
    x = np.asarray(x, dtype=np.float64)
    out = np.fromiter(map(math.erf, x.ravel().tolist()), np.float64, x.size)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


class TargetDistribution:
    """A reference law to verify convergence against; ks_statistic takes
    its cdf to be nondecreasing within _KS_MARGIN."""

    def __init__(self, name: str, cdf: Callable[[np.ndarray], np.ndarray],
                 char_fn: Callable[[float], float],
                 density: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.name, self.cdf, self.char_fn = name, cdf, char_fn
        self.density = density


def target_library(name: str) -> TargetDistribution:
    """'std_normal', 'cauchy' (gamma = sqrt(pi/2)) or 'cauchy_gamma:<g>'."""
    if name == "std_normal":
        return TargetDistribution(
            name="std_normal",
            cdf=lambda x: 0.5 * (1.0 + erf(np.asarray(x) / math.sqrt(2.0))),
            density=lambda x: np.exp(-0.5 * np.square(x)) / math.sqrt(2 * math.pi),
            char_fn=lambda t: math.exp(-0.5 * t * t))
    if name == "cauchy" or name.startswith("cauchy_gamma:"):
        if name == "cauchy":
            gamma = math.sqrt(math.pi / 2.0)
        else:
            try:
                gamma = float(name.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad gamma in {name!r}")
            if not (math.isfinite(gamma) and gamma > 0):
                raise ValueError("gamma must be finite and positive")
        return TargetDistribution(
            name=f"cauchy_gamma:{gamma:.17g}",
            cdf=lambda x, g=gamma: 0.5 + np.arctan(np.asarray(x) / g) / math.pi,
            density=lambda x, g=gamma: g / (math.pi * (np.square(x) + g * g)),
            char_fn=lambda t, g=gamma: math.exp(-g * abs(t)))
    raise ValueError(f"unknown target {name!r}; "
                     "use std_normal, cauchy or cauchy_gamma:<g>")


_KS_BLOCK = 16
# the few ulps by which a computed CDF may fail to be monotone, and more
_KS_MARGIN = 1e-12


def ks_statistic(batch: SampleBatch, target: TargetDistribution) -> float:
    """Exact sup |F_N - F| over the sample: max(i/N - F_(i), F_(i) - (i-1)/N).

    The one-sided gaps around every order statistic are both needed; a
    grid-based sup systematically undershoots. F is monotone, so its
    values at the ends of a block of _KS_BLOCK order statistics bound the
    gaps inside; F is taken inside only the blocks whose bound comes
    within _KS_MARGIN of the largest gap at the ends, which keeps the
    bits of the formula taken at every point.
    """
    x = np.sort(batch.values)
    if x.size == 0:
        raise ValueError("empty batch")
    n = x.size
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise ValueError("non-finite values in the batch")
    ends = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
    fe = np.asarray(target.cdf(x[ends]), dtype=np.float64)
    best = max(np.max((ends + 1) / n - fe), np.max(fe - ends / n))
    lo = ends[:-1]
    bound = np.maximum(ends[1:] / n - fe[:-1], fe[1:] - (lo + 1) / n)
    inner = (lo[bound + _KS_MARGIN >= best, None]
             + np.arange(1, _KS_BLOCK)).ravel()
    inner = inner[inner < n - 1]
    if inner.size:
        fx = np.asarray(target.cdf(x[inner]), dtype=np.float64)
        best = max(best, np.max((inner + 1) / n - fx), np.max(fx - inner / n))
    return float(best)


def ecf(batch: SampleBatch, t_grid) -> np.ndarray:
    """Empirical characteristic function (1/N) sum_k e^{i t V_k}.

    A t twice the t before it squares that t's terms in place of a
    complex exp per draw. A squaring doubles a term's error and adds a few
    ulps: after j of them a term is within about 3 2^j eps of e^{itV}, and
    the modulus within that of 1. Exactly 1 at t = 0.
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if batch.values.size == 0:
        raise ValueError("empty batch")
    if not np.isfinite(batch.values).all():
        raise ValueError("non-finite values in the batch")
    out = np.empty(t.shape, dtype=np.complex128)
    v = batch.values
    for j, tj in enumerate(t):
        if j and tj == 2.0 * t[j - 1] != 0.0:
            e *= e  # e^{2itV} = (e^{itV})^2
        elif tj != 0.0:
            e = np.exp(1j * tj * v)
        out[j] = 1.0 + 0.0j if tj == 0.0 else np.mean(e)
    return out
