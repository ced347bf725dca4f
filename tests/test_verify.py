"""Verification-layer tests: erf, targets, KS, the empirical char fn."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinelaw.sampler import SampleBatch, builtin_f, sample_vn, uniform_stream
from sinelaw.verify import ecf, erf, ks_statistic, target_library

mp.mp.dps = 30


def make_batch(values, **kw):
    values = np.asarray(values, dtype=np.float64)
    defaults = dict(n=1, count=values.size, seed=0, f_id="test")
    defaults.update(kw)
    return SampleBatch(values=values, **defaults)


# ---------------------------------------------------------------------------
# erf

def test_erf_accuracy_dense():
    xs = np.linspace(-6.0, 6.0, 601)
    got = erf(xs)
    for x, g in zip(xs, got):
        assert abs(g - float(mp.erf(x))) <= 1e-12


@given(st.floats(-40.0, 40.0))
@settings(max_examples=400, deadline=None)
def test_erf_against_mpmath_within_documented_bound(x):
    # the docstring's bound, 1e-13, for scalars and array elements alike
    with mp.workdps(30):
        want = float(mp.erf(x))
    assert abs(erf(x) - want) <= 1e-13
    assert erf(np.array([x, -x])).tolist() == [erf(x), -erf(x)]


def test_erf_special_values():
    assert erf(0.0) == 0.0
    assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-13)
    assert erf(-1.0) == -erf(1.0)
    assert erf(6.0) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# target library

def test_std_normal_target():
    t = target_library("std_normal")
    assert t.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert t.cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert t.density(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-14)
    assert t.char_fn(1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_cauchy_target_matches_limit_density_scale():
    g = math.sqrt(math.pi / 2.0)
    t = target_library("cauchy")
    # density at 0: 1/(sqrt(2 pi) * pi/2) = sqrt(2/pi)/pi
    assert t.density(0.0) == pytest.approx(math.sqrt(2 / math.pi) / math.pi,
                                           abs=1e-14)
    assert t.char_fn(2.0) == pytest.approx(math.exp(-2.0 * g), abs=1e-15)
    assert t.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    custom = target_library("cauchy_gamma:2.0")
    assert custom.density(0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-14)


def test_target_cdf_limits_and_monotone():
    for name in ("std_normal", "cauchy"):
        t = target_library(name)
        lo = -1e9 if name == "cauchy" else -40.0
        hi = -lo
        assert t.cdf(lo) == pytest.approx(0.0, abs=1e-9)
        assert t.cdf(hi) == pytest.approx(1.0, abs=1e-9)
        xs = np.linspace(-20, 20, 200)
        assert np.all(np.diff(t.cdf(xs)) >= 0)


def test_target_usage_errors():
    with pytest.raises(ValueError):
        target_library("weibull")
    with pytest.raises(ValueError):
        target_library("cauchy_gamma:-1")


# ---------------------------------------------------------------------------
# KS statistic

def test_ks_single_sample_at_median():
    t = target_library("std_normal")
    assert ks_statistic(make_batch([0.0]), t) == pytest.approx(0.5, abs=1e-12)


def test_ks_exact_draws_within_asymptotic_quantile():
    # draws taken exactly from the target by inverse-CDF: the alpha=0.01
    # Kolmogorov quantile 1.63/sqrt(N) bounds the statistic for these
    # fixed seeds
    t = target_library("cauchy")
    g = math.sqrt(math.pi / 2.0)
    n = 10_000
    for seed in (0, 1, 2, 3):
        u = uniform_stream(seed, 0, n)
        draws = g * np.tan(math.pi * (u - 0.5))
        ks = ks_statistic(make_batch(draws), t)
        assert ks <= 1.63 / math.sqrt(n)


def test_ks_detects_wrong_target():
    batch = sample_vn(builtin_f("gaussian"), 1000, 10000, 42)
    ks_right = ks_statistic(batch, target_library("std_normal"))
    ks_wrong = ks_statistic(batch, target_library("cauchy"))
    assert ks_right <= 0.03 < ks_wrong


def test_ks_beats_grid_sup():
    # the order-statistics formula sees the jump gaps a grid would miss
    t = target_library("std_normal")
    batch = make_batch([-0.1, 0.0, 0.1])
    ks = ks_statistic(batch, t)
    grid = np.linspace(-3, 3, 1000)
    ecdf = np.searchsorted(np.sort(batch.values), grid, side="right") / 3.0
    grid_sup = np.max(np.abs(ecdf - t.cdf(grid)))
    assert ks >= grid_sup - 1e-12


def test_ks_refinement_trend_seed_fixed():
    for name, target in (("gaussian", "std_normal"), ("cauchy", "cauchy")):
        f = builtin_f(name)
        t = target_library(target)
        ks_small = ks_statistic(sample_vn(f, 1000, 1000, 13), t)
        ks_big = ks_statistic(sample_vn(f, 1000, 100_000, 13), t)
        assert ks_big <= ks_small + 0.01


def test_ks_empty_batch_rejected():
    t = target_library("std_normal")
    b = make_batch([1.0])
    b.values = np.array([])
    with pytest.raises(ValueError):
        ks_statistic(b, t)


# ---------------------------------------------------------------------------
# empirical characteristic function

def test_ecf_trivial_values():
    batch = make_batch(np.zeros(100))
    vals = ecf(batch, [0.0, 0.5, 3.0])
    assert np.allclose(vals, 1.0)
    batch2 = make_batch(np.random.default_rng(0).normal(size=500))
    assert ecf(batch2, [0.0])[0] == 1.0 + 0.0j


def test_ecf_modulus_bounded():
    batch = make_batch(np.random.default_rng(1).normal(size=2000))
    vals = ecf(batch, np.linspace(-5, 5, 21))
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_ecf_gaussian_large_sample():
    batch = sample_vn(builtin_f("gaussian"), 1000, 100_000, 7)
    for t in (0.5, 1.0, 2.0):
        assert abs(ecf(batch, [t])[0] - math.exp(-0.5 * t * t)) <= 0.02


def test_ecf_pooling_linearity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=1500)
    b = rng.normal(size=500) * 2.0
    pooled = make_batch(np.concatenate([a, b]))
    ts = [0.3, 1.1, 2.7]
    lhs = ecf(pooled, ts)
    rhs = (1500 * ecf(make_batch(a), ts) + 500 * ecf(make_batch(b), ts)) / 2000
    assert np.allclose(lhs, rhs, atol=1e-14)
