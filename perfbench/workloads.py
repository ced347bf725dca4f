"""The two benchmark workloads: what each sets up, times and checks.

A round times one part per target in `targets`: gaussian and cauchy on
`direct`, gaussian only on `inverse`. The end-to-end metric `round_s` is
the median time of a whole round; the time per target (`gaussian_s`,
`cauchy_s`) and the finer figures named after the user commands
(`pipeline_gaussian_s`, `density_s`, `density_point_s`) are reported per
workload next to it.
Tolerances are those of tests/test_acceptance.py, and of
tests/test_limitlaw.py for the density.
"""

import hashlib
import importlib
import json
import math
import os
import statistics
import sys
import time
import warnings

import numpy as np

TARGETS = ("gaussian", "cauchy")
A = math.sqrt(math.pi / 2.0)  # Cauchy scale of the closed-form pair

PROBE_U = (0.05, 0.1, 0.5, 0.9, 0.95)  # acceptance criterion 4
# the solved f's table and, outside [1e-4, 1 - 1e-4], its invert_k fallback
SOLVED_PROBE_U = (1e-5, 5e-5, 1e-3, 3e-3) + PROBE_U + (1.0 - 5e-5,)
PROBE_T = (0.5, 1.0, 2.0, 3.0, 5.0)    # acceptance criterion 3
DENSITY_GRID = (-2.0, 2.0, 41)  # the CLI `density` grid's step, on [-2, 2]
DENSITY_X = (1.0,)              # signs drawn from the seed

# quadrature tolerance of the pipeline's solve, against the 1e-10 default:
# the k table needs 584 H0 calls, not 1872, so a round takes about 4.5 s
# and a run measures several; hankel0 still dominates the round
SOLVE_TOL = 1e-8

TOL_INVERT = 1e-6   # criterion 4: invert_k against the closed-form f
TOL_K = 1e-7        # criterion 4: k_psi against the closed-form k
TOL_PHI = 1e-6      # criterion 3: J0-average against the target phi
TOL_DENSITY = 1e-5  # test_limitlaw: density against the closed form
TOL_KS = 0.03       # criterion 5 and the CLI default threshold
# The solved f, as |df| / (1 + f). The tabulated f of solve_inverse is
# accurate to about 1e-5, short of the 1e-6 its docstring states; the gate
# sits at the order of criterion 7 so that losing digits of f is a failure.
TOL_F = 1e-4


def closed_f(target, u):
    u = np.asarray(u, dtype=np.float64)
    if target == "gaussian":
        return np.sqrt(-2.0 * np.log(u))
    return A * np.sqrt(1.0 - u * u) / u


def f_rel_err(target, u, got):
    want = closed_f(target, u)
    return float(np.max(np.abs(np.asarray(got) - want) / (1.0 + np.abs(want))))


def closed_k(target, t):
    if target == "gaussian":
        return math.exp(-0.5 * t * t)
    return math.sqrt(math.pi) / math.sqrt(2.0 * t * t + math.pi)


def closed_phi(target, t):
    return math.exp(-0.5 * t * t) if target == "gaussian" else math.exp(-A * t)


def closed_density(target, x):
    x = np.asarray(x, dtype=np.float64)
    if target == "gaussian":
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return A / (math.pi * (x * x + A * A))


def import_sinelaw():
    """Import the package afresh, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "sinelaw" or m.startswith("sinelaw.")]:
        del sys.modules[name]
    pkg = importlib.import_module("sinelaw")
    importlib.import_module("sinelaw.cli")
    return pkg


def _quiet(fn, *args, **kwargs):
    # solve_inverse warns about the cauchy target's kink at t = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


class Run:
    """Timings, checks and failures of one benchmark run."""

    def __init__(self, out_dir, record_dir):
        self.out_dir = out_dir
        self.record_dir = record_dir
        self.rounds = []       # per round: {key: seconds}
        self.attempted = 0
        self.failures = []
        self.info = {}         # measured but not gated

    def start_round(self):
        self.rounds.append({})

    def op(self, stage, target, fn, *args):
        """Time fn(*args) under `stage`, `target`, `stage:target` and
        `round`.

        Returns None, and counts a failure, if the call raised.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{stage}/{target} raised {exc!r}")
            out = None
        dt = time.perf_counter() - t0
        cur = self.rounds[-1]
        for key in (stage, target, f"{stage}:{target}", "round"):
            cur[key] = cur.get(key, 0.0) + dt
        return out

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def check_f(self, name, target, u, got):
        """Gate a solved f at TOL_F; keep its error as info."""
        if got is None:
            return self.check(name, False, "no result")
        err = f_rel_err(target, u, got)
        self.info[f"{name.replace(' ', '_')}_max_rel_err"] = err
        self.check(name, err <= TOL_F, f"error {err:.3e} > {TOL_F:.0e}")

    def check_close(self, name, got, want, tol):
        if got is None:
            return self.check(name, False, "no result")
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        self.check(name, err <= tol, f"error {err:.3e} > {tol:.0e}")

    def check_repeatable(self, key, digest):
        """The digest must equal every earlier one recorded under `key`,
        in this run and in earlier runs of the same source tree."""
        path = os.path.join(self.record_dir, key)
        seen = None
        if os.path.exists(path):
            with open(path) as fh:
                seen = fh.read().strip()
        self.check(f"repeatable {key}", seen in (None, digest),
                   f"sha256 {digest[:12]} differs from {str(seen)[:12]}")
        if seen is None:
            tmp = f"{path}.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(digest + "\n")
            os.replace(tmp, path)

    def median(self, key):
        return statistics.median(r.get(key, 0.0) for r in self.rounds)

    @property
    def failed(self):
        return len(self.failures)


class Inverse:
    targets = ("gaussian",)

    def setup(self, sl, seed, rng):
        self.sl = sl
        self.seed = seed
        self.solved = []
        self.cfg = sl.QuadConfig(abs_tol=SOLVE_TOL, rel_tol=SOLVE_TOL)
        inverse = self.sl.inverse

        def capture(psi, *args, **kwargs):
            # solve at SOLVE_TOL; keep the CLI's fresh CharFn and its f, so
            # the k table and the f the pipeline sampled from can be probed
            f = inverse.solve_inverse(psi, *args, cfg=self.cfg, **kwargs)
            self.solved.append((psi, f))
            return f

        self.sl.cli.solve_inverse = capture

    def round(self, run):
        self.solved.clear()
        for target in self.targets:
            out = os.path.join(run.out_dir, target)
            rc = run.op("pipeline", target, _quiet, self.sl.cli.main,
                        ["--quiet", "pipeline", "--psi", target,
                         "--seed", str(self.seed), "--out-dir", out])
            run.check(f"pipeline {target} exit code", rc == 0, f"exit {rc}")

    def checks(self, run):
        inv = self.sl.inverse
        run.check("pipeline solved every target",
                  len(self.solved) == len(self.targets),
                  f"{len(self.solved)} solved")
        probe = np.asarray(SOLVED_PROBE_U)
        for target, (psi, f) in zip(self.targets, self.solved):
            out = os.path.join(run.out_dir, target)
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
            run.check(f"{target} report pass", report["pass"] is True)
            run.check(f"{target} KS", report["ks"] <= TOL_KS,
                      f"KS {report['ks']:.4f} > {TOL_KS}")
            with open(os.path.join(out, "samples.csv"), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            run.check_repeatable(f"inverse-{target}-{self.seed}", digest)
            ts = (0.5, 1.0, 2.0)
            run.check_close(f"{target} k_psi",
                            [inv.k_psi(psi, t, self.cfg) for t in ts],
                            [closed_k(target, t) for t in ts], TOL_K)
            run.check_close(f"{target} invert_k",
                            [inv.invert_k(psi, u, self.cfg) for u in PROBE_U],
                            closed_f(target, PROBE_U), TOL_INVERT)
            table = np.loadtxt(os.path.join(out, "f_table.csv"),
                               delimiter=",", skiprows=1)
            run.check_f(f"f_table {target}", target, table[:, 0], table[:, 1])
            run.check_f(f"solved_f {target}", target, probe, f.eval(probe))

    def figures(self, run):
        return {"pipeline_gaussian_s": (run.median("pipeline:gaussian"), "s")}


class Direct:
    targets = TARGETS

    def setup(self, sl, seed, rng):
        self.sl = sl
        self.fs = {t: sl.builtin_f(t) for t in TARGETS}
        lo, hi, n = DENSITY_GRID
        self.xs = np.linspace(lo, hi, n)
        # the CLI `density` defaults: --tol 1e-6, 200k panels
        self.cfg = sl.QuadConfig(abs_tol=1e-6, rel_tol=1e-6,
                                 max_panels=200_000)
        # the law is symmetric, so the signs change the input, not the work
        signs = rng.choice([-1.0, 1.0], size=len(DENSITY_X))
        self.density_x = [float(s * x) for s, x in zip(signs, DENSITY_X)]

    def round(self, run):
        sl = self.sl
        for target in TARGETS:
            f = self.fs[target]
            got = run.op("density", target, sl.density_profile, f, self.xs,
                         self.cfg)
            run.check_close(f"{target} density_profile", got,
                            closed_density(target, self.xs), TOL_DENSITY)
            law = sl.build_limit_law(f)
            for x in self.density_x:
                got = run.op("density_point", target, law.density, x)
                run.check_close(f"{target} density({x:.3f})", got,
                                closed_density(target, x), TOL_DENSITY)

    def checks(self, run):
        cfg = self.sl.QuadConfig(abs_tol=2e-7, rel_tol=2e-7,
                                 max_panels=200_000)
        for target in TARGETS:
            run.check_close(
                f"{target} phi",
                [self.sl.limit_char_fn(self.fs[target], t, cfg)
                 for t in PROBE_T],
                [closed_phi(target, t) for t in PROBE_T], TOL_PHI)

    def figures(self, run):
        return {"density_s": (run.median("density"), "s"),
                "density_point_s": (run.median("density_point"), "s")}


WORKLOADS = {"inverse": Inverse, "direct": Direct}
