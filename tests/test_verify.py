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
        assert abs(g - float(mp.erf(x))) <= 2e-16


@given(st.floats(-40.0, 40.0))
@settings(max_examples=400, deadline=None)
def test_erf_against_mpmath_within_documented_bound(x):
    # the docstring's bound, 2e-16, for scalars and array elements alike
    with mp.workdps(30):
        want = float(mp.erf(x))
    assert abs(erf(x) - want) <= 2e-16
    assert erf(np.array([x, -x])).tolist() == [erf(x), -erf(x)]


def test_erf_is_math_erf_bit_for_bit_in_any_shape():
    # signed zeros, infinities and |x| near 6, where erf reaches 1
    vals = [0.0, -0.0, math.inf, -math.inf, 5.9, -5.95, 6.0,
            np.nextafter(6.0, 0.0), 1e-300, -0.3, 2.5, 26.0]
    want = [math.erf(v) for v in vals]
    for x in vals:
        got = erf(x)
        assert type(got) is float
        assert math.copysign(1.0, got) == math.copysign(1.0, math.erf(x))
        assert got == math.erf(x)
    assert type(erf(np.float64(0.5))) is float
    assert erf(np.array(0.5)) == math.erf(0.5)
    got = erf(np.array(vals))
    assert got.shape == (12,) and got.dtype == np.float64
    assert got.tolist() == want
    assert np.array_equal(np.signbit(got), np.signbit(want))
    got = erf(np.array(vals).reshape(3, 4))
    assert got.shape == (3, 4)
    assert got.ravel().tolist() == want
    assert erf(np.empty((0, 3))).shape == (0, 3)


def test_erf_special_values():
    assert erf(0.0) == 0.0
    assert erf(1.0) == pytest.approx(0.8427007929497149, abs=2e-16)
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
    for gamma in ("-1", "nan", "inf"):
        with pytest.raises(ValueError):
            target_library(f"cauchy_gamma:{gamma}")


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


def _ks_full(batch, target):
    # the reference: the formula with F at every order statistic
    x = np.sort(batch.values)
    n = x.size
    fx = np.asarray(target.cdf(x), dtype=np.float64)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(i / n - fx), np.max(fx - (i - 1) / n)))


@given(st.integers(1, 20_000), st.sampled_from(["std_normal", "cauchy"]),
       st.sampled_from(["target", "shifted", "ties"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_ks_blocks_have_the_bits_of_the_full_sup(n, name, law, seed):
    # sizes below one block and not a multiple of it; samples from the
    # target, from a law shifted far off it (KS near 1), and with ties
    t = target_library(name)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) if name == "std_normal" else \
        rng.standard_cauchy(n) * math.sqrt(math.pi / 2.0)
    if law == "shifted":
        v = v + 8.0
    elif law == "ties":
        v = np.round(v, 1)
    batch = make_batch(v)
    assert ks_statistic(batch, t) == _ks_full(batch, t)


def _cauchy_quantile(u):
    return math.sqrt(math.pi / 2.0) * np.tan(math.pi * (u - 0.5))


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 64, 100])
def test_ks_finds_a_sup_at_every_order_statistic(n):
    # evenly spread quantiles with draw j moved by 0.3/n: the sup is its
    # gap, up or down, and every block is taken whole
    t = target_library("cauchy")
    for j in range(n):
        for shift in (-0.3, 0.3):
            u = (np.arange(n) + 0.5) / n
            u[j] += shift / n
            batch = make_batch(_cauchy_quantile(u))
            assert ks_statistic(batch, t) == _ks_full(batch, t)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ks_block_bound_reached_by_a_run_of_ties(sign):
    # draws 0 .. q-1 tie at u = 0.5/n: the gap above draw q-1 is the sup,
    # 0.5/n above the next draw's, and meets its block's bound when q
    # ends a block. Negated, the draws reach the bound from below.
    n = 100
    t = target_library("cauchy")
    for q in range(1, n - 1):
        u = (np.arange(n) + 0.5) / n
        u[:q] = 0.5 / n
        u[q] = 2.0 / n
        batch = make_batch(sign * _cauchy_quantile(u))
        assert ks_statistic(batch, t) == _ks_full(batch, t)


@pytest.mark.parametrize("name,target", [("gaussian", "std_normal"),
                                         ("cauchy", "cauchy")])
def test_ks_evaluates_the_cdf_on_few_of_the_pipeline_draws(name, target):
    # the CLI's defaults: n = 1000, 10,000 draws, seed 42
    t = target_library(target)
    batch = sample_vn(builtin_f(name), 1000, 10_000, 42)
    points = []
    cdf = t.cdf

    def counted(x):
        points.append(np.size(x))
        return cdf(x)

    t.cdf = counted
    assert ks_statistic(batch, t) == _ks_full(batch, target_library(target))
    assert len(points) <= 2
    assert sum(points) < 0.3 * 10_000


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_and_ecf_reject_nonfinite_values(bad):
    batch = make_batch([0.5, bad, -1.0])
    with pytest.raises(ValueError, match="non-finite"):
        ks_statistic(batch, target_library("std_normal"))
    with pytest.raises(ValueError, match="non-finite"):
        ecf(batch, [0.5, 1.0])


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


def _ecf_per_t(v, ts):
    # the reference: one complex exp pass per t
    return np.array([1.0 + 0.0j if t == 0.0 else np.mean(np.exp(1j * t * v))
                     for t in ts])


@pytest.mark.parametrize("draw", ["standard_normal", "standard_cauchy"])
def test_ecf_doubling_grid_within_ulps_of_per_t_exp(draw):
    # the CLI grid: each t after the first is twice the one before, so
    # its terms are the squares of the previous t's
    v = getattr(np.random.default_rng(3), draw)(10_000)
    ts = (0.5, 1.0, 2.0, 4.0)
    got = ecf(make_batch(v), ts)
    assert np.max(np.abs(got - _ecf_per_t(v, ts))) <= 1e-15
    assert np.all(np.abs(got) <= 1.0 + 1e-15)


@pytest.mark.parametrize("ts", [(0.3, 1.1, 2.7, -0.5), (0.0, 1.0, 3.0),
                                (1.0, 0.0, 0.0, 2.5), (2.0, -1.0, 0.0)])
def test_ecf_without_doubling_is_the_per_t_exp_bit_for_bit(ts):
    v = np.random.default_rng(4).standard_cauchy(10_000)
    got = ecf(make_batch(v), ts)
    assert np.array_equal(got, _ecf_per_t(v, ts))
    assert np.all(got[np.asarray(ts) == 0.0] == 1.0 + 0.0j)
