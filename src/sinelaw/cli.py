"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric convergence failure. All file outputs are written atomically
(temp file + rename) and each file-producing run writes a metadata JSON
with versions and a hash of the effective configuration; reruns with the
same hash produce byte-identical CSVs.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .bessel import jacobi_anger_partial, parseval_partial
from .errors import BracketError, ConvergenceError, ModelViolationError
from .inverse import CharFn, solve_inverse
from .limitlaw import ParamFunction, density_profile, limit_char_fn
from .quadrature import QuadConfig
from .sampler import SampleBatch, builtin_f, sample_vn
from .transforms import Decay, RealFunction, fourier1, hankel0
from .verify import ecf, ks_statistic, target_library

_ECF_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_KS_THRESHOLD = 0.03


def _say(args, msg):
    if not args.quiet:
        print(msg, file=sys.stderr)


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(cfg: dict):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _versions():
    return {
        "sinelaw": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _write_meta(path, command, config, extra=None):
    meta = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "versions": _versions(),
    }
    if extra:
        meta.update(extra)
    _atomic_write(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta


def _parse_floats(arg):
    return [float(x) for x in arg.split(",") if x.strip() != ""]


# ---------------------------------------------------------------------------
# table loading

def _load_f_table(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: expected CSV with columns u,f_of_u")
    us, fs = data[np.argsort(data[:, 0])].T[:2]

    def ev(x):
        return np.interp(np.asarray(x, dtype=np.float64), us, fs)

    diffs = np.diff(fs)
    eps = -1 if np.all(diffs < 0) else (1 if np.all(diffs > 0) else None)
    inverse = None
    if eps is not None:

        def inverse(t):
            order = np.argsort(fs)
            return float(np.interp(t, fs[order], us[order]))

    return ParamFunction(eval=ev, epsilon_f=eps, inverse=inverse,
                         range_=(float(np.min(fs)), float(np.max(fs))),
                         f_id=f"table:{os.path.basename(path)}")


def _decay_from_flag(arg):
    kind, _, param = arg.partition(":")
    if kind == "gaussian":
        return Decay("gaussian", float(param) if param else 1.0)
    if kind == "exponential":
        if not param:
            raise ValueError("exponential decay needs a rate: exponential:<rate>")
        return Decay("exponential", float(param))
    if kind == "algebraic":
        if not param:
            raise ValueError("algebraic decay needs a power: algebraic:<p>")
        return Decay("algebraic", float(param))
    raise ValueError(f"unknown decay class {arg!r}")


_SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def _builtin_psi(name):
    if name == "gaussian":
        return CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                      decay=Decay("gaussian", 1.0),
                      closed_form_hankel=lambda u: math.exp(-0.5 * u * u),
                      name="gaussian")
    if name == "cauchy":
        return CharFn(
            eval=lambda t: np.exp(-_SQRT_PI_2 * np.abs(t)),
            decay=Decay("exponential", _SQRT_PI_2),
            closed_form_hankel=lambda u: _SQRT_PI_2 / (u * u + math.pi / 2.0) ** 1.5,
            name="cauchy")
    return None


def _load_psi(arg, decay_flag):
    builtin = _builtin_psi(arg)
    if builtin is not None:
        return builtin
    if arg.startswith("table:"):
        path = arg.split(":", 1)[1]
        if decay_flag is None:
            raise ValueError("--psi-decay is required for table targets")
        decay = _decay_from_flag(decay_flag)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        ts, vs = data[:, 0], data[:, 1]
        order = np.argsort(ts)
        ts, vs = ts[order], vs[order]
        t_last, v_last = float(ts[-1]), float(vs[-1])
        env_last = decay.envelope(t_last)

        def ev(t):
            t = np.abs(np.asarray(t, dtype=np.float64))
            out = np.asarray(np.interp(t, ts, vs))
            far = t > t_last
            if np.any(far):
                # extend by the declared decay envelope fitted at the tail
                tail = np.array([decay.envelope(x) for x in t[far].tolist()])
                out[far] = v_last * tail / max(env_last, 1e-300)
            return out

        return CharFn(eval=ev, decay=decay,
                      name=f"table:{os.path.basename(path)}")
    raise ValueError(f"unknown psi {arg!r}; use gaussian, cauchy or table:<path>")


def _load_f(arg):
    if arg.startswith("table:"):
        return _load_f_table(arg.split(":", 1)[1])
    return builtin_f(arg)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sample(args):
    f = _load_f(args.f)
    if args.n < 1 or args.count < 1:
        raise ValueError("n and count must be >= 1")
    _say(args, f"sampling {args.count} draws of V_n[{f.f_id}], n={args.n}, "
               f"seed={args.seed}")
    batch = sample_vn(f, args.n, args.count, args.seed)
    _write_csv(args.out, "v", batch.values)
    config = {"command": "sample", "f": args.f, "n": args.n,
              "count": args.count, "seed": args.seed}
    _write_meta(args.out + ".meta.json", "sample", config, extra={
        "f_id": batch.f_id, "n": batch.n, "count": batch.count,
        "seed": batch.seed, "resamples": batch.resamples})
    _say(args, f"wrote {args.out}")
    return 0


def _write_csv(path, header, *columns):
    # 17 significant digits, so every float reads back exactly
    fmt = "{:.17g}".format
    cols = (map(fmt, np.asarray(c, dtype=float).tolist()) for c in columns)
    rows = map(",".join, zip(*cols))
    _atomic_write(path, "\n".join([header, *rows]) + "\n")


def _read_samples(path):
    vals = np.loadtxt(path, skiprows=1, dtype=np.float64)
    meta_path = path + ".meta.json"
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return SampleBatch(
        values=np.atleast_1d(vals),
        n=int(meta.get("n", 0) or 1),
        count=int(np.atleast_1d(vals).size),
        seed=int(meta.get("seed", 0) or 0),
        f_id=str(meta.get("f_id", "unknown")),
        resamples=int(meta.get("resamples", 0) or 0))


def _cmd_charfn(args):
    f = _load_f(args.f)
    cfg = QuadConfig(abs_tol=args.tol, rel_tol=args.tol, max_panels=200_000)
    ts = _parse_floats(args.t)
    vals = limit_char_fn(f, np.array(ts), cfg)
    if args.out:
        _write_csv(args.out, "t,phi", ts, vals)
        config = {"command": "charfn", "f": args.f, "t": ts, "tol": args.tol}
        _write_meta(args.out + ".meta.json", "charfn", config)
    for v in vals:
        print(f"{v:.6f}")
    return 0


def _cmd_density(args):
    f = _load_f(args.f)
    if args.x:
        xs = np.array(_parse_floats(args.x))
    else:
        lo, hi, n = args.x_grid.split(":")
        xs = np.linspace(float(lo), float(hi), int(n))
    cfg = QuadConfig(abs_tol=args.tol, rel_tol=args.tol, max_panels=200_000)
    vals = density_profile(f, xs, cfg)
    if args.out:
        _write_csv(args.out, "x,density", xs, vals)
        config = {"command": "density", "f": args.f,
                  "x": [float(x) for x in xs], "tol": args.tol}
        _write_meta(args.out + ".meta.json", "density", config)
    else:
        for x, v in zip(xs, vals):
            print(f"{x:g} {v:.6f}")
    return 0


def _cmd_invert(args):
    psi = _load_psi(args.psi, args.psi_decay)
    f = solve_inverse(psi, override_checks=args.override_checks,
                      on_report=None if args.quiet else
                      lambda r: print(r.summary(), file=sys.stderr))
    us = np.linspace(1e-4, 1.0 - 1e-4, args.table_points)
    _write_csv(args.out, "u,f_of_u", us, f.eval(us))
    config = {"command": "invert", "psi": args.psi,
              "table_points": args.table_points}
    _write_meta(args.out + ".meta.json", "invert", config)
    _say(args, f"wrote {args.out}")
    return 0


def _ks_report(batch, target, path, threshold):
    """Write batch's KS and ECF report against target; (ks, passed)."""
    ks = ks_statistic(batch, target)
    passed = ks <= threshold
    ecf_rows = [{"t": t, "re": float(z.real), "im": float(z.imag),
                 "target": float(target.char_fn(t))}
                for t, z in zip(_ECF_GRID, ecf(batch, _ECF_GRID))]
    report = {
        "ks": ks,
        "ks_threshold": threshold,
        "pass": bool(passed),
        "ecf": ecf_rows,
        "n": batch.n,
        "count": batch.count,
        "seed": batch.seed,
    }
    _atomic_write(path, json.dumps(report, indent=2) + "\n")
    return ks, passed


def _cmd_verify(args):
    batch = _read_samples(args.samples)
    target = target_library(args.target)
    ks, passed = _ks_report(batch, target, args.report, args.ks_threshold)
    config = {"command": "verify", "samples": args.samples,
              "target": args.target, "ks_threshold": args.ks_threshold}
    _write_meta(args.report + ".meta.json", "verify", config)
    _say(args, f"KS = {ks:.5f} ({'pass' if passed else 'FAIL'} at "
               f"{args.ks_threshold})")
    return 0 if passed else 1


def _cmd_pipeline(args):
    psi = _load_psi(args.psi, args.psi_decay)
    if _builtin_psi(args.psi) is None:
        raise ValueError("pipeline needs a builtin psi (gaussian or cauchy); "
                         "run invert/sample/verify separately for tables")
    _say(args, f"solving the inverse problem for psi={psi.name}")
    f = solve_inverse(psi)

    os.makedirs(args.out_dir, exist_ok=True)
    f_path = os.path.join(args.out_dir, "f_table.csv")
    us = np.linspace(1e-4, 1.0 - 1e-4, 2001)
    _write_csv(f_path, "u,f_of_u", us, f.eval(us))

    _say(args, f"sampling n={args.n}, count={args.count}, seed={args.seed}")
    batch = sample_vn(f, args.n, args.count, args.seed)
    s_path = os.path.join(args.out_dir, "samples.csv")
    _write_csv(s_path, "v", batch.values)
    config = {"command": "pipeline", "psi": args.psi, "n": args.n,
              "count": args.count, "seed": args.seed,
              "ks_threshold": args.ks_threshold}
    _write_meta(s_path + ".meta.json", "pipeline", config, extra={
        "f_id": batch.f_id, "n": batch.n, "count": batch.count,
        "seed": batch.seed, "resamples": batch.resamples})

    target = target_library("std_normal" if args.psi == "gaussian" else "cauchy")
    r_path = os.path.join(args.out_dir, "report.json")
    ks, passed = _ks_report(batch, target, r_path, args.ks_threshold)
    _write_meta(r_path + ".meta.json", "pipeline", config)
    _say(args, f"KS = {ks:.5f} vs {target.name}: "
               f"{'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_transform(args):
    kind, _, param = args.g.partition(":")
    if kind == "gaussian":
        g = RealFunction(eval=lambda r: np.exp(-0.5 * np.square(r)),
                         decay=Decay("gaussian", 1.0))
    elif kind == "exp":
        a = float(param) if param else 1.0
        g = RealFunction(eval=lambda r: np.exp(-a * r),
                         decay=Decay("exponential", a))
    elif kind == "lorentz":
        a = float(param) if param else 1.0
        g = RealFunction(eval=lambda r: 1.0 / (np.square(r) + a * a),
                         decay=Decay("algebraic", 2.0))
    else:
        raise ValueError(f"unknown test function {args.g!r}; "
                         "use gaussian, exp:<rate> or lorentz:<a>")
    op = hankel0 if args.kind == "hankel0" else fourier1
    cfg = QuadConfig(abs_tol=args.tol, rel_tol=args.tol)
    ts = _parse_floats(args.t)
    vals = op(g, np.array(ts), cfg)
    if args.out:
        _write_csv(args.out, "t,value", ts, vals)
        config = {"command": "transform", "kind": args.kind, "g": args.g,
                  "t": ts, "tol": args.tol}
        _write_meta(args.out + ".meta.json", "transform", config)
    for v in vals:
        print(f"{v:.9g}")
    return 0


def _cmd_selfcheck(args):
    ok = True

    def gate(name, err, tol):
        nonlocal ok
        good = err <= tol
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {name}: err {err:.2e} "
              f"(tol {tol:.0e})")

    for w in (0.5, 2.0, 8.0):
        k = int(math.ceil(w)) + 40
        err = abs(parseval_partial(w, k) - 0.5 * w * w) / (0.5 * w * w)
        gate(f"parseval identity w={w}", err, 1e-8)
    for w in (1.0, 5.0, 10.0):
        k = int(math.ceil(w)) + 40
        xg = np.linspace(-math.pi, math.pi, 41)
        err = max(abs(jacobi_anger_partial(w, float(x), k)
                      - np.exp(1j * w * math.sin(x))) for x in xg)
        gate(f"plane-wave expansion w={w}", err, 1e-8)

    a = _SQRT_PI_2
    lorentz = RealFunction(eval=lambda x: 1.0 / (np.square(x) + a * a),
                           decay=Decay("algebraic", 2.0))
    for t in (0.0, 0.5, 2.0):
        exact = math.sqrt(math.pi) / (a * math.sqrt(2.0)) * math.exp(-a * t)
        err = abs(fourier1(lorentz, t) - exact)
        gate(f"lorentzian cosine pair t={t}", err, 1e-7)

    gauss = RealFunction(eval=lambda r: np.exp(-0.5 * np.square(r)),
                         decay=Decay("gaussian", 1.0))
    h0exp = RealFunction(
        eval=lambda t: a / (np.square(t) + math.pi / 2.0) ** 1.5,
        decay=Decay("algebraic", 3.0))
    for r in (0.5, 1.0, 2.0):
        err = abs(hankel0(gauss, r) - math.exp(-0.5 * r * r))
        gate(f"hankel self-reciprocity (gaussian) t={r}", err, 1e-7)
        err = abs(hankel0(h0exp, r) - math.exp(-a * r))
        gate(f"hankel self-reciprocity (exponential) t={r}", err, 1e-7)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="sinelaw",
        description="Limit laws of f(U) sin(nU): direct and inverse "
                    "problems, sampling, verification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress progress output")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress output")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("sample", help="draw realizations of V_n[f]")
    s.add_argument("--f", required=True,
                   help="gaussian | cauchy | const:<c> | table:<path>")
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--count", type=int, default=10000)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--out", default="samples.csv")
    s.set_defaults(fn=_cmd_sample)

    s = add_parser("charfn", help="limiting characteristic function")
    s.add_argument("--f", required=True)
    s.add_argument("--t", required=True, help="comma-separated t values")
    s.add_argument("--tol", type=float, default=1e-7)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_charfn)

    s = add_parser("density", help="limiting probability density")
    s.add_argument("--f", required=True)
    s.add_argument("--x", help="comma-separated x values")
    s.add_argument("--x-grid", default="-8:8:161", help="lo:hi:n")
    s.add_argument("--tol", type=float, default=1e-6)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_density)

    s = add_parser("invert", help="solve the inverse problem for psi")
    s.add_argument("--psi", required=True,
                   help="gaussian | cauchy | table:<path>")
    s.add_argument("--psi-decay",
                   help="decay class for table targets: gaussian[:scale] | "
                        "exponential:<rate> | algebraic:<p>")
    s.add_argument("--table-points", type=int, default=2001)
    s.add_argument("--override-checks", action="store_true",
                   help="proceed even if the admissibility checks fail")
    s.add_argument("--out", default="f_table.csv")
    s.set_defaults(fn=_cmd_invert)

    s = add_parser("verify", help="goodness of fit of a sample file")
    s.add_argument("--samples", required=True)
    s.add_argument("--target", required=True,
                   help="std_normal | cauchy | cauchy_gamma:<g>")
    s.add_argument("--ks-threshold", type=float, default=DEFAULT_KS_THRESHOLD)
    s.add_argument("--report", default="report.json")
    s.set_defaults(fn=_cmd_verify)

    s = add_parser("pipeline",
                       help="invert psi, sample V_n, verify the law")
    s.add_argument("--psi", required=True, help="gaussian | cauchy")
    s.add_argument("--psi-decay")
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--count", type=int, default=10000)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--ks-threshold", type=float, default=DEFAULT_KS_THRESHOLD)
    s.add_argument("--out-dir", default=".")
    s.set_defaults(fn=_cmd_pipeline)

    s = add_parser("transform", help="evaluate H0 or the cosine "
                                         "Fourier transform of a test function")
    s.add_argument("--kind", choices=("hankel0", "fourier1"), required=True)
    s.add_argument("--g", required=True,
                   help="gaussian | exp:<rate> | lorentz:<a>")
    s.add_argument("--t", required=True)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_transform)

    s = add_parser("selfcheck", help="run the identity suite")
    s.set_defaults(fn=_cmd_selfcheck)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ModelViolationError, BracketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
