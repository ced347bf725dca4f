"""Sampler tests: determinism, clamping, resampling, and law convergence.

The 0.03 KS thresholds were pre-validated with a 100-seed Monte-Carlo
envelope at n=1000, N=10000 (max observed 0.0192 gaussian / 0.0182
cauchy, 99th percentile ~0.018); the fixed seeds used here sit well
inside it.
"""

import math

import numpy as np
import pytest

from sinelaw.limitlaw import ParamFunction, limit_char_fn
from sinelaw.quadrature import QuadConfig
from sinelaw.sampler import SampleBatch, builtin_f, sample_vn, uniform_stream
from sinelaw.verify import (TargetDistribution, ecf, ks_statistic,
                            target_library)

A = math.sqrt(math.pi / 2.0)


def test_stream_chunk_invariance():
    full = uniform_stream(123, 0, 20000)
    for sizes in ([20000], [1] * 64 + [19936], [3, 5, 7, 19985],
                  [4096] * 4 + [3616]):
        parts, s = [], 0
        for c in sizes:
            parts.append(uniform_stream(123, s, c))
            s += c
        assert np.array_equal(np.concatenate(parts), full)


def test_sample_decomposition_invariance():
    f = builtin_f("gaussian")
    a = sample_vn(f, 1000, 5000, 7)
    b = sample_vn(f, 1000, 5000, 7, chunk_size=311)
    assert np.array_equal(a.values, b.values)


def test_sample_deterministic_given_seed():
    f = builtin_f("cauchy")
    a = sample_vn(f, 1000, 2000, 99)
    b = sample_vn(f, 1000, 2000, 99)
    assert np.array_equal(a.values, b.values)
    c = sample_vn(f, 1000, 2000, 98)
    assert not np.array_equal(a.values, c.values)


def test_sample_worker_invariance(monkeypatch):
    f = builtin_f("gaussian")
    base = sample_vn(f, 1000, 30000, 5, chunk_size=4096)
    monkeypatch.setenv("SINELAW_WORKERS", "4")
    par = sample_vn(f, 1000, 30000, 5, chunk_size=4096)
    assert np.array_equal(base.values, par.values)


def test_const_zero_all_zero():
    batch = sample_vn(builtin_f("const:0"), 5, 200, 1)
    assert np.all(batch.values == 0.0)
    assert batch.f_id == "const:0"


def test_batch_invariants():
    f = builtin_f("cauchy")
    batch = sample_vn(f, 1000, 4000, 11)
    assert batch.values.shape == (4000,)
    assert np.all(np.isfinite(batch.values))
    with pytest.raises(ValueError):
        SampleBatch(values=np.zeros(3), n=1, count=4, seed=0, f_id="x")


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_seeds_outside_64_bits_are_rejected(seed):
    # a masked -1 would draw the stream of 2^64 - 1
    with pytest.raises(ValueError, match="seed"):
        uniform_stream(seed, 0, 5)
    with pytest.raises(ValueError, match="seed"):
        sample_vn(builtin_f("gaussian"), 10, 5, seed)


def test_largest_seed_draws_its_own_stream():
    top = sample_vn(builtin_f("gaussian"), 10, 5, 2 ** 64 - 1)
    assert top.seed == 2 ** 64 - 1 and np.all(np.isfinite(top.values))
    assert not np.array_equal(top.values, sample_vn(builtin_f("gaussian"),
                                                    10, 5, 0).values)


def test_sample_batch_construction():
    b = SampleBatch([1, 2], 3, 2, 4, "x", 5)
    assert b.values.dtype == np.float64 and list(b.values) == [1.0, 2.0]
    assert (b.n, b.count, b.seed, b.f_id, b.resamples) == (3, 2, 4, "x", 5)
    assert SampleBatch(values=[0.5], n=1, count=1, seed=0,
                       f_id="y").resamples == 0


def test_validation_errors():
    f = builtin_f("gaussian")
    with pytest.raises(ValueError):
        sample_vn(f, 0, 10, 1)
    with pytest.raises(ValueError):
        sample_vn(f, 10, 0, 1)
    with pytest.raises(ValueError):
        builtin_f("nope")
    with pytest.raises(ValueError):
        builtin_f("const:xyz")


def test_resampling_of_nonfinite_is_deterministic():
    # f blowing up on a subinterval: draws there get resampled from the
    # stream tail, independent of chunking
    def spiky(u):
        u = np.asarray(u, dtype=np.float64)
        return np.where((u > 0.4) & (u < 0.45), np.inf, 1.0)

    f = ParamFunction(eval=spiky, f_id="spiky")
    with pytest.warns(UserWarning):
        a = sample_vn(f, 3, 4000, 17)
    with pytest.warns(UserWarning):
        b = sample_vn(f, 3, 4000, 17, chunk_size=123)
    assert a.resamples > 0
    assert np.array_equal(a.values, b.values)
    assert np.all(np.isfinite(a.values))


def test_builtin_examples():
    g = builtin_f("gaussian")
    assert g.eval(math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)
    c = builtin_f("cauchy")
    assert c.eval(0.5) == pytest.approx(math.sqrt(3.0 * math.pi / 2.0),
                                        abs=1e-12)
    for u in (0.1, 0.5, 0.9):
        assert c.inverse(c.eval(u)) == pytest.approx(u, abs=1e-12)
    assert g.epsilon_f == -1 and c.epsilon_f == -1


# ---------------------------------------------------------------------------
# distributional checks (fixed seeds; envelopes pre-validated, see module
# docstring)

def test_ks_gaussian_pipeline_seed42():
    batch = sample_vn(builtin_f("gaussian"), 1000, 10000, 42)
    ks = ks_statistic(batch, target_library("std_normal"))
    assert ks <= 0.03


def test_ks_cauchy_pipeline_seed42():
    batch = sample_vn(builtin_f("cauchy"), 1000, 10000, 42)
    ks = ks_statistic(batch, target_library("cauchy"))
    assert ks <= 0.03


@pytest.mark.parametrize("name", ["gaussian", "cauchy"])
def test_symmetry_of_samples(name):
    # the KS distance of the sample from the empirical law of its mirror
    batch = sample_vn(builtin_f(name), 1000, 10000, 42)
    mirror = np.sort(-batch.values)
    target = TargetDistribution(
        name="mirror", char_fn=None,
        cdf=lambda x: np.searchsorted(mirror, x, side="right") / mirror.size)
    assert ks_statistic(batch, target) <= 0.02


@pytest.mark.parametrize("name,phi", [
    ("gaussian", lambda t: math.exp(-0.5 * t * t)),
    ("cauchy", lambda t: math.exp(-A * abs(t))),
])
def test_ecf_converges_to_limit_charfn(name, phi):
    f = builtin_f(name)
    batch = sample_vn(f, 1000, 100_000, 7)
    cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7, max_panels=200_000)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        lim = limit_char_fn(f, t, cfg)
        assert lim == pytest.approx(phi(t), abs=1e-6)
        worst = max(worst, abs(ecf(batch, [t])[0] - lim))
    assert worst <= 0.02
