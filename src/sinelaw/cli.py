"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric convergence failure. All file outputs are written atomically
(temp file + rename), with the permissions the umask gives a new file,
and each file-producing run writes a metadata JSON
with versions and a hash of the effective configuration; reruns with the
same hash produce byte-identical CSVs.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import threading
import warnings

import numpy as np

from . import __version__
from .bessel import jacobi_anger_partial, parseval_partial
from .errors import BracketError, ConvergenceError, ModelViolationError
from .inverse import CharFn, solve_inverse
from .limitlaw import ParamFunction, density_profile, limit_char_fn
from .quadrature import QuadConfig
from .sampler import _SQRT_PI_2, SampleBatch, builtin_f, sample_vn
from .transforms import Decay, RealFunction, fourier1, hankel0
from .verify import ecf, ks_statistic, target_library

_ECF_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_KS_THRESHOLD = 0.03


def _say(args, msg):
    if not args.quiet:
        print(msg, file=sys.stderr)


def _atomic_write(path, data):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    # a name of this process and thread, made 0o666 less the umask
    tmp = os.path.join(d, f".tmp_{os.getpid()}_{threading.get_ident()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    _atomic_write(path, (json.dumps(meta, indent=2, sort_keys=True)
                         + "\n").encode())
    return meta


def _parse_floats(flag, arg):
    try:  # an empty item, or an empty list, is a usage error
        return [float(x) for x in arg.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated numbers, "
                         f"not {arg!r}") from None


# ---------------------------------------------------------------------------
# table loading

def _loadtxt(path, **kw):
    # past the header line; the caller, not numpy, reports a file of no rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, skiprows=1, dtype=np.float64, **kw)


def _load_table(path):
    """The first two columns of a CSV with a header line and at least 2
    rows and 2 columns, sorted by the first."""
    data = _loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: need a header line and at least 2 rows "
                         "of 2 columns")
    return data[np.argsort(data[:, 0])].T[:2]


def _load_f_table(path):
    us, fs = _load_table(path)

    def ev(x):
        return np.interp(np.asarray(x, dtype=np.float64), us, fs)

    diffs = np.diff(fs)
    eps = -1 if np.all(diffs < 0) else (1 if np.all(diffs > 0) else None)
    inverse = None
    if eps is not None:

        def inverse(t):
            # f strictly monotone: reversed by eps, its values ascend; at
            # or past them, the end of (0, 1) where f is smallest or largest
            t = np.asarray(t, dtype=np.float64)
            u = np.interp(t, fs[::eps], us[::eps])
            return np.where(t <= fs[::eps][0], (1 - eps) / 2,
                            np.where(t >= fs[::eps][-1], (1 + eps) / 2, u))

    return ParamFunction(eval=ev, epsilon_f=eps, inverse=inverse,
                         f_id=f"table:{os.path.basename(path)}")


def _decay_from_flag(arg):
    kind, _, param = arg.partition(":")
    if kind == "exponential" and not param:
        raise ValueError("exponential decay needs a rate: exponential:<rate>")
    if kind == "algebraic" and not param:
        raise ValueError("algebraic decay needs a power: algebraic:<p>")
    if kind not in ("gaussian", "exponential", "algebraic"):
        raise ValueError(f"unknown decay class {arg!r}")
    try:
        return Decay(kind, float(param) if param else 1.0)
    except ValueError as exc:
        raise ValueError(f"--psi-decay {arg}: {exc}") from None


def _builtin_psi(name):
    if name == "gaussian":
        return CharFn(eval=lambda t: np.exp(-0.5 * np.square(t)),
                      decay=Decay("gaussian", 1.0), name="gaussian")
    if name == "cauchy":
        return CharFn(eval=lambda t: np.exp(-_SQRT_PI_2 * np.abs(t)),
                      decay=Decay("exponential", _SQRT_PI_2), name="cauchy")
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
        ts, vs = _load_table(path)
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
# CSV output: "%.17g" text, byte for byte, in numpy blocks. A v of decimal
# exponent e in [-4, 15] has the 17 digits hi + rint(lo), hi + lo being
# |v| 10^(16-e) by Dekker's exact product and hi an even integer (so ties
# go to even); a layout per e and number of significant digits picks its
# text's bytes from its source row. Python formats the rest one by one: 0,
# subnormals, inf, nan, exponent forms, and a log10 in the wrong decade.

# source bytes (digit k at 3 + k); row bytes; longest text and separator
_DOT, _ZERO, _NUL, _SIGN, _SEP, _ROW, _CELL = 0, 1, 2, 20, 21, 24, 25
_CSV_BLOCK = 8192  # rows per block, so memory stays bounded


def _csv_layouts():
    """Row 17 (e + 4) + s - 1: the source byte of each output byte."""
    e = np.arange(-4, 16)[:, None, None]
    q = np.arange(-1, _CELL - 2)  # output position after the sign
    point = np.maximum(e, 0) + 1
    k = q - (q > point) - np.maximum(-e, 0)  # the digit at q, if k >= 0
    at = np.select([q < 0, q == point, k < 0, k < 17],
                   [_SIGN, _DOT, _ZERO, k + 3], _NUL)
    # the integer part, and of the rest the first s digits
    at = np.where((q < point) | (k < np.arange(1, 18)[:, None]), at, _NUL)
    return np.concatenate([at, np.full((20, 17, 1), _SEP)],
                          axis=2).reshape(-1, _CELL)


def _split(x):  # Veltkamp's: x = hi + lo, 26 significant bits each
    hi = 134217729.0 * x - (134217729.0 * x - x)
    return hi, x - hi


_CSV_AT = _csv_layouts()
_P10 = 10.0 ** np.arange(20, 0, -1)  # 10^(16-e), exact for e = -4 .. 15
_P10_HI, _P10_LO = _split(_P10)
_QUAD = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                             indexing="ij", copy=False),
                 axis=-1).view(np.uint32).ravel()  # "0000" .. "9999"


def _csv_block(block, seps):
    """A 2-D block's text, each value ended by its column's byte in seps."""
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e4 = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 15) + 4
    hi = a * _P10[e4]  # below 1e18: e is off by at most one
    (ah, al), bh, bl = _split(a), _P10_HI[e4], _P10_LO[e4]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    n17 = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & (n17 < 10 ** 17)
    lead, low = np.divmod(n17, 10 ** 16)
    src = np.empty((v.size, _ROW), np.uint8)
    src[:, :3] = 46, 48, 0
    src[:, 3] = lead + 48
    for word, step in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1), 1):
        src.view(np.uint32)[:, word] = _QUAD[low // step % 10000]
    src[:, _SIGN] = np.signbit(v) * 45
    src.reshape(block.shape + (_ROW,))[..., _SEP] = seps
    zeros = np.argmax(src[:, 19:2:-1] != 48, axis=1)  # trailing "0"s
    at = np.take(_CSV_AT, 17 * e4 + 16 - zeros, axis=0)
    at += np.arange(0, src.size, _ROW)[:, None]
    cells = np.take(src, at)
    for i in np.flatnonzero(~fast).tolist():
        cells[i, :-1] = np.frombuffer(
            (b"%.17g" % v[i]).ljust(_CELL - 1, b"\0"), np.uint8)
    return cells.tobytes().translate(None, b"\0")


def _write_csv(path, header, *columns):
    # 17 significant digits, so every float reads back exactly
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    seps = np.frombuffer(b"," * (data.shape[1] - 1) + b"\n", np.uint8)
    _atomic_write(path, b"".join([header.encode() + b"\n"] + [
        _csv_block(data[r:r + _CSV_BLOCK], seps)
        for r in range(0, len(data), _CSV_BLOCK)]))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sample(args):
    f = _load_f(args.f)
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


def _read_samples(path):
    vals = _loadtxt(path)
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
    ts = _parse_floats("--t", args.t)
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
        xs = np.array(_parse_floats("--x", args.x))
    else:
        try:
            lo, hi, n = args.x_grid.split(":")
            xs = np.linspace(float(lo), float(hi), int(n))
        except ValueError:
            raise ValueError(f"--x-grid takes lo:hi:n, not {args.x_grid!r}")
        if xs.size == 0:
            raise ValueError(f"--x-grid needs n >= 1, not {args.x_grid!r}")
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


def _solve(args, psi, summary, **kw):
    """solve_inverse with its warnings caught. Unless --quiet, the check_L
    summary is printed if `summary` (a failed check's error carries it
    instead), and each warning not listed there as a WARN line."""
    shown = []

    def on_report(report):
        if summary:
            shown.extend(report.warnings)
            if report.passed or kw.get("override_checks"):
                _say(args, report.summary())

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            return solve_inverse(psi, on_report=on_report, **kw)
        finally:
            for w in caught:
                if str(w.message) not in shown:
                    _say(args, f"WARN  {w.message}")


def _cmd_invert(args):
    psi = _load_psi(args.psi, args.psi_decay)
    f = _solve(args, psi, True, override_checks=args.override_checks)
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
    _atomic_write(path, (json.dumps(report, indent=2) + "\n").encode())
    return ks, passed


def _cmd_verify(args):
    batch = _read_samples(args.samples)
    target = target_library(args.target)
    try:
        ks, passed = _ks_report(batch, target, args.report, args.ks_threshold)
    except ValueError as exc:  # a sample file of non-finite values
        raise ValueError(f"{args.samples}: {exc}") from None
    config = {"command": "verify", "samples": args.samples,
              "target": args.target, "ks_threshold": args.ks_threshold}
    _write_meta(args.report + ".meta.json", "verify", config)
    _say(args, f"KS = {ks:.5f} ({'pass' if passed else 'FAIL'} at "
               f"{args.ks_threshold})")
    return 0 if passed else 1


def _cmd_pipeline(args):
    psi = _builtin_psi(args.psi)
    _say(args, f"solving the inverse problem for psi={psi.name}")
    f = _solve(args, psi, False)

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
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"lorentz:<a> needs a finite a > 0, not {a!r}")
        g = RealFunction(eval=lambda r: 1.0 / (np.square(r) + a * a),
                         decay=Decay("algebraic", 2.0))
    else:
        raise ValueError(f"unknown test function {args.g!r}; "
                         "use gaussian, exp:<rate> or lorentz:<a>")
    op = hankel0 if args.kind == "hankel0" else fourier1
    cfg = QuadConfig(abs_tol=args.tol, rel_tol=args.tol)
    ts = _parse_floats("--t", args.t)
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

# name: (handler, help line, the add_argument calls of its parser)
_COMMANDS = {
    "sample": (_cmd_sample, "draw realizations of V_n[f]", (
        ("--f", dict(required=True,
                     help="gaussian | cauchy | const:<c> | table:<path>")),
        ("--n", dict(type=int, default=1000)),
        ("--count", dict(type=int, default=10000)),
        ("--seed", dict(type=int, default=42)),
        ("--out", dict(default="samples.csv")))),
    "charfn": (_cmd_charfn, "limiting characteristic function", (
        ("--f", dict(required=True)),
        ("--t", dict(required=True, help="comma-separated t values")),
        ("--tol", dict(type=float, default=1e-7)),
        ("--out", {}))),
    "density": (_cmd_density, "limiting probability density", (
        ("--f", dict(required=True)),
        ("--x", dict(help="comma-separated x values")),
        ("--x-grid", dict(default="-8:8:161", help="lo:hi:n")),
        ("--tol", dict(type=float, default=1e-6)),
        ("--out", {}))),
    "invert": (_cmd_invert, "solve the inverse problem for psi", (
        ("--psi", dict(required=True,
                       help="gaussian | cauchy | table:<path>")),
        ("--psi-decay", dict(
            help="decay class for table targets: gaussian[:scale] | "
                 "exponential:<rate> | algebraic:<p>")),
        ("--table-points", dict(type=int, default=2001)),
        ("--override-checks", dict(
            action="store_true",
            help="proceed even if the admissibility checks fail")),
        ("--out", dict(default="f_table.csv")))),
    "verify": (_cmd_verify, "goodness of fit of a sample file", (
        ("--samples", dict(required=True)),
        ("--target", dict(required=True,
                          help="std_normal | cauchy | cauchy_gamma:<g>")),
        ("--ks-threshold", dict(type=float, default=DEFAULT_KS_THRESHOLD)),
        ("--report", dict(default="report.json")))),
    "pipeline": (_cmd_pipeline, "invert psi, sample V_n, verify the law", (
        ("--psi", dict(required=True, choices=("gaussian", "cauchy"))),
        ("--n", dict(type=int, default=1000)),
        ("--count", dict(type=int, default=10000)),
        ("--seed", dict(type=int, default=42)),
        ("--ks-threshold", dict(type=float, default=DEFAULT_KS_THRESHOLD)),
        ("--out-dir", dict(default=".")))),
    "transform": (_cmd_transform, "evaluate H0 or the cosine Fourier "
                                  "transform of a test function", (
        ("--kind", dict(choices=("hankel0", "fourier1"), required=True)),
        ("--g", dict(required=True,
                     help="gaussian | exp:<rate> | lorentz:<a>")),
        ("--t", dict(required=True)),
        ("--tol", dict(type=float, default=1e-9)),
        ("--out", {}))),
    "selfcheck": (_cmd_selfcheck, "run the identity suite", ()),
}


@functools.cache  # per process, on the first call that runs the command
def _command_parser(name):
    fn, _, arguments = _COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"sinelaw {name}")
    p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                   help="suppress progress output")
    for flag, kw in arguments:
        p.add_argument(flag, **kw)
    p.set_defaults(fn=fn)
    return p


class _Deferred:
    """Stands in for a command's parser in the top-level parser, which
    hands it the command's arguments: only then is that parser built."""

    def __init__(self, command, **_):
        self.command = command

    def parse_known_args(self, args, namespace):
        return _command_parser(self.command).parse_known_args(args, namespace)


@functools.cache  # on the first main call, not at import
def _parser():
    p = argparse.ArgumentParser(
        prog="sinelaw",
        description="Limit laws of f(U) sin(nU): direct and inverse "
                    "problems, sampling, verification.")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress output")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Deferred)
    for name, (_, help_, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_, command=name)
    return p


def _check_flags(args):
    """Usage errors in sizes, seed and threshold, raised before any work."""
    if min(getattr(args, "n", 1), getattr(args, "count", 1)) < 1:
        raise ValueError("n and count must be >= 1")
    if getattr(args, "table_points", 1) < 1:
        raise ValueError(
            f"--table-points must be >= 1, not {args.table_points}")
    if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
        raise ValueError(f"--seed must be in [0, 2^64), not {args.seed}")
    if not 0.0 < getattr(args, "ks_threshold", 1.0) <= 1.0:
        raise ValueError(
            f"--ks-threshold must be in (0, 1], not {args.ks_threshold}")


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except (ValueError, ModelViolationError, BracketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        # float arithmetic out of range on extreme inputs raises an
        # ArithmeticError; an OverflowError's args are (errno, message)
        print(f"numeric failure: {exc.args[-1] if exc.args else exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
