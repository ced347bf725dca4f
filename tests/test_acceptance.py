"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is fixed here, not calibrated at runtime. The KS thresholds of
criterion 5 were pre-validated offline with a 100-seed Monte-Carlo
envelope (n=1000, N=10000: max KS 0.0192 gaussian / 0.0182 cauchy, 99th
percentile ~0.018, documented seed 42 gives 0.0079 / 0.0067).
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

from sinelaw.bessel import jacobi_anger_partial, parseval_partial
from sinelaw.inverse import CharFn, invert_k, k_psi, solve_inverse
from sinelaw.limitlaw import limit_char_fn
from sinelaw.quadrature import QuadConfig
from sinelaw.sampler import builtin_f, sample_vn
from sinelaw.transforms import (Decay, RealFunction, fourier1,
                                fourier2_radial_crosscheck, hankel0)
from sinelaw.verify import ecf, ks_statistic, target_library

A = math.sqrt(math.pi / 2.0)


def _report(num, desc, worst, tol):
    ok = worst <= tol
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {desc}: "
          f"worst {worst:.3e} vs tolerance {tol:.0e}")
    assert ok, f"criterion {num}: {worst:.3e} > {tol:.0e}"


def test_criterion_1_bessel_identities():
    worst_p = 0.0
    worst_j = 0.0
    xs = np.linspace(-math.pi, math.pi, 100)
    for w in (0.5, 1.0, 2.0, 5.0, 8.0, 10.0):
        k = math.ceil(w) + 40
        rel = abs(parseval_partial(w, k) - 0.5 * w * w) / (0.5 * w * w)
        worst_p = max(worst_p, rel)
        sup = max(abs(jacobi_anger_partial(w, float(x), k)
                      - np.exp(1j * w * math.sin(x))) for x in xs)
        worst_j = max(worst_j, sup)
    _report(1, "Parseval partial sums (relative)", worst_p, 1e-8)
    _report(1, "plane-wave expansion partial sums (sup)", worst_j, 1e-8)


def test_criterion_2_transform_golden_pairs():
    gauss = RealFunction(eval=lambda r: np.exp(-0.5 * np.square(r)),
                         decay=Decay("gaussian", 1.0))
    expf = RealFunction(eval=lambda r: np.exp(-A * r),
                        decay=Decay("exponential", A))
    lorentz = RealFunction(eval=lambda x: 1.0 / (np.square(x) + A * A),
                           decay=Decay("algebraic", 2.0))
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        worst = max(worst, abs(hankel0(gauss, t) - math.exp(-0.5 * t * t)))
        want = A / (t * t + math.pi / 2.0) ** 1.5
        worst = max(worst, abs(hankel0(expf, t) - want))
    _report(2, "Hankel golden pairs", worst, 1e-7)

    worst = 0.0
    for t in (0.0, 0.5, 2.0):
        want = math.sqrt(math.pi) / (A * math.sqrt(2.0)) * math.exp(-A * t)
        worst = max(worst, abs(fourier1(lorentz, t) - want))
    _report(2, "Lorentzian cosine-transform pair", worst, 1e-7)

    worst = 0.0
    for G, t in ((gauss, 0.0), (gauss, 1.0), (expf, 2.0)):
        direct, via_hankel = fourier2_radial_crosscheck(G, t)
        worst = max(worst, abs(direct - via_hankel))
    _report(2, "radial 2-D Fourier cross-check", worst, 1e-5)


def test_criterion_3_direct_problem():
    f = builtin_f("gaussian")
    cfg = QuadConfig(abs_tol=2e-7, rel_tol=2e-7, max_panels=200_000)
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        worst = max(worst, abs(limit_char_fn(f, t, cfg)
                               - math.exp(-0.5 * t * t)))
    _report(3, "J0-average of sqrt(-2 ln u) vs gaussian", worst, 1e-6)


def _psi_gauss():
    return CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                  decay=Decay("gaussian", 1.0), name="gaussian")


def _psi_cauchy():
    return CharFn(eval=lambda t: np.exp(-A * np.abs(t)),
                  decay=Decay("exponential", A), name="cauchy")


def test_criterion_4_inverse_closed_forms():
    pg, pc = _psi_gauss(), _psi_cauchy()
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        worst = max(worst, abs(k_psi(pg, t) - math.exp(-0.5 * t * t)))
        worst = max(worst, abs(k_psi(pc, t)
                               - math.sqrt(math.pi) / math.sqrt(2 * t * t + math.pi)))
    _report(4, "k from the target characteristic functions", worst, 1e-7)

    worst = 0.0
    for u in (0.05, 0.1, 0.5, 0.9, 0.95):
        worst = max(worst, abs(invert_k(pg, u) - math.sqrt(-2 * math.log(u))))
        worst = max(worst, abs(invert_k(pc, u)
                               - A * math.sqrt(1 - u * u) / u))
    _report(4, "numeric inverse of k vs closed forms", worst, 1e-6)


def test_criterion_5_sampling_reproduction():
    bg = sample_vn(builtin_f("gaussian"), 1000, 10000, 42)
    ks_g = ks_statistic(bg, target_library("std_normal"))
    _report(5, "gaussian pipeline KS (n=1000, N=10000, seed 42)", ks_g, 0.03)
    bc = sample_vn(builtin_f("cauchy"), 1000, 10000, 42)
    ks_c = ks_statistic(bc, target_library("cauchy"))
    _report(5, "cauchy pipeline KS (n=1000, N=10000, seed 42)", ks_c, 0.03)


def test_criterion_6_levy_consistency():
    cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7, max_panels=200_000)
    for name in ("gaussian", "cauchy"):
        f = builtin_f(name)
        batch = sample_vn(f, 1000, 100_000, 7)
        worst = 0.0
        for t in (0.5, 1.0, 2.0, 4.0):
            lim = limit_char_fn(f, t, cfg)
            worst = max(worst, abs(complex(ecf(batch, [t])[0]) - lim))
        _report(6, f"empirical charfn vs limit ({name}, N=1e5)", worst, 0.02)


def test_criterion_7_pipeline_closure():
    import warnings
    cfg = QuadConfig(abs_tol=2e-5, rel_tol=2e-5, max_panels=200_000)
    for psi, phi in ((_psi_gauss(), lambda t: math.exp(-0.5 * t * t)),
                     (_psi_cauchy(), lambda t: math.exp(-A * t))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = solve_inverse(psi)
        worst = 0.0
        for t in (0.5, 1.0, 2.0):
            worst = max(worst, abs(limit_char_fn(f, t, cfg) - phi(t)))
        _report(7, f"solve_inverse then limit charfn ({psi.name})", worst, 1e-4)


def test_criterion_8_pipeline_determinism(tmp_path):
    outs = []
    for sub in ("one", "two"):
        d = str(tmp_path / sub)
        r = subprocess.run(
            [sys.executable, "-m", "sinelaw.cli", "--quiet", "pipeline",
             "--psi", "gaussian", "--n", "1000", "--count", "10000",
             "--seed", "42", "--out-dir", d],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        with open(os.path.join(d, "samples.csv"), "rb") as fh:
            outs.append(fh.read())
        with open(os.path.join(d, "report.json")) as fh:
            report = json.load(fh)
        assert report["pass"] is True
    identical = outs[0] == outs[1]
    print(f"[criterion 8] {'PASS' if identical else 'FAIL'}  two pipeline "
          f"runs, byte-identical sample CSVs: {identical}")
    assert identical
