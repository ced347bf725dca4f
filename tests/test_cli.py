"""CLI contract tests: exit codes, file formats, sidecars, determinism."""

import json
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinelaw.cli import (_atomic_write, _load_f_table, _load_psi, _loadtxt,
                         _write_csv, main)
from sinelaw.quadrature import QuadConfig
from sinelaw.transforms import Decay, RealFunction

A = math.sqrt(math.pi / 2.0)


def run(*argv):
    return main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_sample_writes_csv_and_sidecar(tmp_path):
    out = str(tmp_path / "s.csv")
    rc = run("--quiet", "sample", "--f", "gaussian", "--n", "50",
             "--count", "200", "--seed", "9", "--out", out)
    assert rc == 0
    lines = read_lines(out)
    assert lines[0] == "v"
    assert len(lines) == 201
    # 17-significant-digit round-trippable floats
    v = float(lines[1])
    assert f"{v:.17g}" == lines[1]
    meta = read_json(out + ".meta.json")
    for key in ("f_id", "n", "count", "seed", "resamples"):
        assert key in meta
    assert meta["f_id"] == "gaussian" and meta["n"] == 50
    assert meta["count"] == 200 and meta["seed"] == 9
    assert "config_hash" in meta and "versions" in meta


def test_charfn_prints_example_value(capsys):
    rc = run("--quiet", "charfn", "--f", "gaussian", "--t", "1.0")
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.exp(-0.5)) <= 1e-6
    assert out == "0.606531"


def test_density_values(capsys):
    rc = run("--quiet", "density", "--f", "cauchy", "--x", "0,1")
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = [float(l.split()[1]) for l in lines]
    want = [1.0 / (math.sqrt(2 * math.pi) * (x * x + math.pi / 2))
            for x in (0.0, 1.0)]
    assert got == pytest.approx(want, abs=1e-5)


def test_invert_table_format(tmp_path):
    out = str(tmp_path / "f_table.csv")
    rc = run("--quiet", "invert", "--psi", "gaussian", "--table-points",
             "101", "--out", out)
    assert rc == 0
    lines = read_lines(out)
    assert lines[0] == "u,f_of_u"
    assert len(lines) == 102
    u, fu = map(float, lines[50].split(","))
    assert fu == pytest.approx(math.sqrt(-2 * math.log(u)), abs=1e-4)


def test_verify_report_schema_and_exit(tmp_path):
    s = str(tmp_path / "s.csv")
    assert run("--quiet", "sample", "--f", "cauchy", "--n", "1000",
               "--count", "10000", "--seed", "42", "--out", s) == 0
    rep = str(tmp_path / "r.json")
    rc = run("--quiet", "verify", "--samples", s, "--target", "cauchy",
             "--report", rep)
    assert rc == 0
    r = read_json(rep)
    for key in ("ks", "ks_threshold", "pass", "ecf", "n", "count", "seed"):
        assert key in r
    assert r["pass"] is True and r["ks"] <= r["ks_threshold"]
    assert r["n"] == 1000 and r["count"] == 10000 and r["seed"] == 42
    for row in r["ecf"]:
        assert set(row) == {"t", "re", "im", "target"}


def test_verify_failure_exit_code(tmp_path):
    s = str(tmp_path / "s.csv")
    run("--quiet", "sample", "--f", "gaussian", "--n", "1000",
        "--count", "10000", "--seed", "42", "--out", s)
    rep = str(tmp_path / "r.json")
    rc = run("--quiet", "verify", "--samples", s, "--target", "cauchy",
             "--report", rep)
    assert rc == 1
    assert read_json(rep)["pass"] is False


def test_pipeline_gaussian_and_byte_determinism(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    rc1 = run("--quiet", "pipeline", "--psi", "gaussian", "--n", "1000",
              "--count", "10000", "--seed", "42", "--out-dir", d1)
    rc2 = run("--quiet", "pipeline", "--psi", "gaussian", "--n", "1000",
              "--count", "10000", "--seed", "42", "--out-dir", d2)
    assert rc1 == 0 and rc2 == 0
    b1 = read_bytes(os.path.join(d1, "samples.csv"))
    b2 = read_bytes(os.path.join(d2, "samples.csv"))
    assert b1 == b2
    m1 = read_json(os.path.join(d1, "samples.csv.meta.json"))
    m2 = read_json(os.path.join(d2, "samples.csv.meta.json"))
    assert m1["config_hash"] == m2["config_hash"]
    report = read_json(os.path.join(d1, "report.json"))
    assert report["pass"] is True
    f_lines = read_lines(os.path.join(d1, "f_table.csv"))
    assert f_lines[0] == "u,f_of_u"


def test_sampling_from_inverted_table_roundtrip(tmp_path):
    # invert writes a table; sample consumes it; the law still verifies
    table = str(tmp_path / "f.csv")
    assert run("--quiet", "invert", "--psi", "gaussian", "--out", table) == 0
    s = str(tmp_path / "s.csv")
    assert run("--quiet", "sample", "--f", f"table:{table}", "--n", "1000",
               "--count", "10000", "--seed", "42", "--out", s) == 0
    rep = str(tmp_path / "r.json")
    assert run("--quiet", "verify", "--samples", s, "--target", "std_normal",
               "--report", rep) == 0


def test_transform_command(capsys):
    rc = run("--quiet", "transform", "--kind", "fourier1", "--g",
             f"lorentz:{A}", "--t", "0.5")
    assert rc == 0
    got = float(capsys.readouterr().out.strip())
    want = math.sqrt(math.pi) / (A * math.sqrt(2)) * math.exp(-A * 0.5)
    assert got == pytest.approx(want, abs=1e-8)


def test_transform_meets_a_tight_tolerance(capsys):
    # exited 3 while the tail was held to 1e-12 whatever --tol:
    # "hankel0 error bound 1.11e-12 exceeds tolerance at t=0.5"
    rc = run("--quiet", "transform", "--kind", "hankel0", "--g", "gaussian",
             "--t", "0.5,1,2,3", "--tol", "1e-12")
    assert rc == 0
    got = [float(v) for v in capsys.readouterr().out.split()]
    want = [math.exp(-0.5 * t * t) for t in (0.5, 1.0, 2.0, 3.0)]
    assert got == pytest.approx(want, abs=1e-9)


def test_selfcheck_passes(capsys):
    assert run("--quiet", "selfcheck") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 12


def test_usage_errors_exit_2(tmp_path):
    assert run("--quiet", "sample", "--f", "nonsense",
               "--out", str(tmp_path / "x.csv")) == 2
    assert run("--quiet", "invert", "--psi", "table:/does/not/exist.csv",
               "--psi-decay", "gaussian",
               "--out", str(tmp_path / "y.csv")) == 2
    assert run("--quiet", "invert", "--psi", "table:/x.csv",
               "--out", str(tmp_path / "z.csv")) == 2  # missing decay flag


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = str(tmp_path / "s.csv")
    run("--quiet", "sample", "--f", "gaussian", "--n", "10", "--count", "50",
        "--seed", "1", "--out", out)
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")]
    assert leftovers == []


def test_pipeline_cauchy_example(tmp_path):
    d = str(tmp_path / "out")
    rc = run("--quiet", "pipeline", "--psi", "cauchy", "--n", "1000",
             "--count", "10000", "--seed", "42", "--out-dir", d)
    assert rc == 0
    report = read_json(os.path.join(d, "report.json"))
    assert report["pass"] is True


def test_convergence_failure_exit_3(capsys):
    # tolerance far below what the panel/tail machinery can certify
    rc = run("--quiet", "charfn", "--f", "cauchy", "--t", "2.0",
             "--tol", "1e-15")
    assert rc == 3


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "sinelaw.cli", *argv],
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_dataclasses_fractions_or_thread_pool():
    # every CLI run is a fresh process that pays for each module imported;
    # the thread pool is imported only when sampling runs threaded
    code = ("import sys, sinelaw.cli; print(sorted({'dataclasses', "
            "'fractions', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("const", ["const:nan", "const:inf"])
def test_nonfinite_constant_f_is_a_usage_error(tmp_path, const):
    out = _cli("--quiet", "sample", "--f", const, "--n", "10",
               "--count", "50", "--out", str(tmp_path / "s.csv"))
    assert out.returncode == 2
    assert "must be finite" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_nonfinite_cauchy_gamma_is_a_usage_error(tmp_path, gamma):
    samples = tmp_path / "s.csv"
    samples.write_text("v\n-0.5\n0.25\n1.0\n")
    report = tmp_path / "r.json"
    out = _cli("--quiet", "verify", "--samples", str(samples), "--target",
               f"cauchy_gamma:{gamma}", "--report", str(report))
    assert out.returncode == 2
    assert "gamma must be finite" in out.stderr
    assert "Traceback" not in out.stderr
    assert not report.exists()


@pytest.mark.parametrize("fs", [[3.0, 2.0, 0.5, 0.25], [0.1, 0.4, 2.0, 7.0]])
def test_table_f_inverse_takes_arrays(tmp_path, fs):
    # one array call has the bits of one call per element
    table = tmp_path / "f.csv"
    table.write_text("u,f_of_u\n" + "".join(
        f"{u!r},{v!r}\n" for u, v in zip([0.1, 0.3, 0.6, 0.9], fs)))
    f = _load_f_table(str(table))
    t = np.linspace(min(fs), max(fs), 37)
    assert np.array_equal(f.inverse(t),
                          np.array([f.inverse(float(x)) for x in t]))


def test_f_never_finite_is_a_numeric_failure(tmp_path):
    table = tmp_path / "inf.csv"
    table.write_text("u,f_of_u\n0.1,inf\n0.5,inf\n0.9,inf\n")
    out = _cli("--quiet", "sample", "--f", f"table:{table}", "--n", "10",
               "--count", "50", "--out", str(tmp_path / "s.csv"))
    assert out.returncode == 3
    assert "failed to evaluate finitely" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flag", ["--n", "--count"])
def test_sample_rejects_bad_size_before_progress(tmp_path, capsys, flag):
    out = str(tmp_path / "s.csv")
    rc = run("sample", "--f", "gaussian", flag, "0", "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "n and count must be >= 1" in err
    assert "sampling" not in err
    assert not os.path.exists(out)


def test_invert_runs_the_admissibility_checks_once(monkeypatch, capsys,
                                                   tmp_path):
    # the report printed is the one solve_inverse computes and enforces
    import sinelaw.cli as cli
    import sinelaw.inverse as inverse
    reports = []
    real = inverse.check_L

    def counted(psi):
        reports.append(real(psi))
        return reports[-1]

    monkeypatch.setattr(inverse, "check_L", counted)
    monkeypatch.setattr(cli, "check_L", counted, raising=False)
    out = str(tmp_path / "f.csv")
    assert run("invert", "--psi", "gaussian", "--table-points", "11",
               "--out", out) == 0
    assert len(reports) == 1
    assert capsys.readouterr().err == (reports[0].summary()
                                       + f"\nwrote {out}\n")


def test_charfn_evaluates_all_t_in_one_call(monkeypatch, capsys):
    import sinelaw.cli as cli
    calls = []
    real = cli.limit_char_fn

    def counted(f, t, cfg):
        calls.append(t)
        return real(f, t, cfg)

    monkeypatch.setattr(cli, "limit_char_fn", counted)
    rc = run("--quiet", "charfn", "--f", "gaussian", "--t", "0.5,1,2")
    assert rc == 0
    assert len(calls) == 1 and list(calls[0]) == [0.5, 1.0, 2.0]
    got = [float(v) for v in capsys.readouterr().out.split()]
    assert got == pytest.approx([math.exp(-0.5 * t * t)
                                 for t in (0.5, 1.0, 2.0)], abs=1e-6)


def test_transform_evaluates_all_t_in_one_call(monkeypatch, capsys, tmp_path):
    import sinelaw.cli as cli
    calls = []
    real = cli.hankel0

    def counted(g, t, cfg):
        calls.append(t)
        return real(g, t, cfg)

    monkeypatch.setattr(cli, "hankel0", counted)
    out = str(tmp_path / "h.csv")
    ts = (0.0, 0.3, 1.0, 4.0)
    rc = run("--quiet", "transform", "--kind", "hankel0", "--g", "exp:1.5",
             "--t", ",".join(map(str, ts)), "--out", out)
    assert rc == 0
    assert len(calls) == 1 and list(calls[0]) == list(ts)
    g = RealFunction(eval=lambda r: np.exp(-1.5 * r),
                     decay=Decay("exponential", 1.5))
    single = [real(g, t, QuadConfig(abs_tol=1e-9, rel_tol=1e-9)) for t in ts]
    assert capsys.readouterr().out == "".join(f"{v:.9g}\n" for v in single)
    with open(out) as fh:
        assert fh.read() == "t,value\n" + "".join(
            f"{t:.17g},{v:.17g}\n" for t, v in zip(ts, single))


def _hard_values():
    # zeros, subnormals, non-finite and exponent forms (formatted one by
    # one), ties at the 17th digit, every power of ten from 1e-6 to 1e17
    # and the fast path's edges 1e-4 and 1e16 with the floats next to them
    vals = [0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3, 1e-310, 3, 7,
            2**60, math.inf, math.nan, 0.1, 1.0 / 3.0, 1e17,
            123456789012345.25, 123456789012345.75, 1e15 + 0.5]
    for x in [float(f"1e{k}") for k in range(-6, 18)]:
        vals += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return vals + [-v for v in vals]


def _csv_text(header, *columns):
    cols = ([f"{v:.17g}" for v in np.asarray(c, dtype=float).tolist()]
            for c in columns)
    return "\n".join([header, *map(",".join, zip(*cols))]) + "\n"


def test_write_csv_formats_every_value_as_a_17_digit_float(tmp_path):
    # byte for byte the join of one "{:.17g}" format per value, for one
    # or two columns, lists (as charfn passes) or arrays, no rows, and
    # 20,001 rows (past a block of 8,192)
    vals = _hard_values()
    rng = np.random.default_rng(7)
    many = rng.standard_normal(20_001) * 10.0 ** rng.integers(-6, 18, 20_001)
    out = tmp_path / "v.csv"
    for columns in ([vals, np.arange(len(vals))], [np.array(vals)],
                    [np.array(vals), vals[::-1]], [np.empty(0)], [[], []],
                    [many, many[::-1]]):
        _write_csv(str(out), "a,b", *columns)
        assert read_bytes(out) == _csv_text("a,b", *columns).encode()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path, monkeypatch,
                                                     capsys):
    import sinelaw.cli as cli
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "v.csv"), "a,b", [1.0, 2.0], [1.0])
    real = cli.limit_char_fn
    monkeypatch.setattr(cli, "limit_char_fn",
                        lambda f, t, cfg: np.append(real(f, t, cfg), 0.0))
    out = tmp_path / "phi.csv"
    assert run("--quiet", "charfn", "--f", "gaussian", "--t", "0.5,1",
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(tmp_path) == []


_bits = st.one_of(
    st.integers(0, 2**64 - 1),  # any float64, nan and inf included
    # or one of binary exponent -20..60, around the fixed-notation range
    st.tuples(st.integers(0, 1), st.integers(1003, 1083),
              st.integers(0, 2**52 - 1)).map(
        lambda t: t[0] << 63 | t[1] << 52 | t[2]))


@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(_bits, min_size=k, max_size=k),
                       max_size=30)))
@settings(max_examples=150, deadline=None)
def test_write_csv_equals_python_format_on_any_float64(rows):
    columns = [[struct.unpack("<d", struct.pack("<Q", b))[0] for b in col]
               for col in zip(*rows)] or [[]]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "v.csv")
        _write_csv(path, "h", *columns)
        assert read_bytes(path) == _csv_text("h", *columns).encode()


def test_write_csv_reads_back_bit_for_bit(tmp_path):
    vals = np.array(_hard_values())
    out = str(tmp_path / "v.csv")
    _write_csv(out, "u,f_of_u", np.arange(vals.size), vals)
    back = _loadtxt(out, delimiter=",", ndmin=2)[:, 1]
    assert np.isnan(back).tolist() == np.isnan(vals).tolist()
    keep = ~np.isnan(vals)
    assert back[keep].view(np.uint64).tolist() == \
        vals[keep].view(np.uint64).tolist()
    assert np.signbit(back[vals == 0]).tolist() == [False, True]
    # an f table holding no nan evaluates to its values at its nodes
    us = np.linspace(0.0, 1.0, int(keep.sum()))
    _write_csv(out, "u,f_of_u", us, vals[keep])
    got = _load_f_table(out).eval(us)
    assert got.view(np.uint64).tolist() == vals[keep].view(np.uint64).tolist()


def test_outputs_get_the_umask_permissions(tmp_path):
    d = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert run("--quiet", "pipeline", "--psi", "gaussian", "--n", "100",
                   "--count", "500", "--ks-threshold", "1",
                   "--out-dir", str(d)) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in d.iterdir()}
    assert modes == {name: 0o644 for name in (
        "f_table.csv", "samples.csv", "samples.csv.meta.json",
        "report.json", "report.json.meta.json")}


def test_atomic_writes_from_threads_leave_only_their_files(tmp_path):
    # each thread writes through its own temp name; a failed write (a
    # directory in the way) leaves no temp file behind
    def write(k):
        for j in range(20):
            _atomic_write(str(tmp_path / f"{k}-{j}"), f"{k} {j}".encode())

    threads = [threading.Thread(target=write, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        _atomic_write(str(tmp_path / "dir"), b"x")
    names = sorted(os.listdir(tmp_path))
    assert names == sorted([f"{k}-{j}" for k in range(6) for j in range(20)]
                           + ["dir"])
    assert all(read_bytes(tmp_path / n) == n.replace("-", " ").encode()
               for n in names if n != "dir")


def _gaussian_psi_table(path):
    # 401 rows of exp(-t^2/2) on [0, 8]
    t = np.linspace(0.0, 8.0, 401)
    path.write_text("t,psi\n" + "".join(
        f"{a!r},{math.exp(-0.5 * a * a)!r}\n" for a in t.tolist()))
    return t


def test_table_psi_extends_past_its_end_in_any_shape(tmp_path):
    table = tmp_path / "psi.csv"
    t = _gaussian_psi_table(table)
    psi = _load_psi(f"table:{table}", "gaussian")
    got = psi.eval(np.array([[1.0, 9.0], [10.0, -2.0]]))
    assert got.shape == (2, 2)
    assert got[0, 0] == np.interp(1.0, t, np.exp(-0.5 * t * t))
    assert got[1, 1] == np.interp(2.0, t, np.exp(-0.5 * t * t))
    # the last row times the declared envelope's ratio
    assert got[1, 0] == pytest.approx(math.exp(-50.0), rel=1e-12)
    assert float(psi.eval(9.0)) == got[0, 1]


def test_invert_gaussian_psi_table_has_no_traceback(tmp_path):
    table = tmp_path / "psi.csv"
    _gaussian_psi_table(table)
    out = _cli("--quiet", "invert", "--psi", f"table:{table}",
               "--psi-decay", "gaussian", "--out", str(tmp_path / "f.csv"))
    assert "Traceback" not in out.stderr
    # a numeric failure: linear interpolation leaves a kink at each of
    # the 401 rows, and H0 of that psi falls short of its 2e-12 target
    assert out.returncode == 3
    assert "numeric failure: hankel0" in out.stderr


@pytest.mark.parametrize("rows", ["0.0,1.0\n", "0.0\n1.0\n2.0\n"])
def test_psi_and_f_tables_of_one_row_or_column_are_usage_errors(tmp_path,
                                                                 rows):
    table = tmp_path / "t.csv"
    table.write_text("t,v\n" + rows)
    for argv in (["invert", "--psi", f"table:{table}", "--psi-decay",
                  "gaussian", "--out", str(tmp_path / "f.csv")],
                 ["sample", "--f", f"table:{table}", "--n", "10",
                  "--count", "50", "--out", str(tmp_path / "s.csv")]):
        out = _cli("--quiet", *argv)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "at least 2 rows of 2" in out.stderr


def test_pipeline_has_no_psi_decay_flag(tmp_path):
    out = _cli("--quiet", "pipeline", "--psi", "gaussian", "--psi-decay",
               "exponential:nonsense", "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert "unrecognized arguments: --psi-decay" in out.stderr
    out = _cli("--quiet", "pipeline", "--psi", f"table:{tmp_path}/psi.csv",
               "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert "invalid choice" in out.stderr
    assert not list(tmp_path.iterdir())


def test_invert_failing_psi_table_with_override_has_no_traceback(tmp_path):
    table = tmp_path / "psi.csv"
    t = np.linspace(0.0, 8.0, 401)
    v = np.cos(3.0 * t) * np.exp(-0.25 * t)
    table.write_text("t,psi\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), v.tolist())))
    out = _cli("--quiet", "invert", "--psi", f"table:{table}", "--psi-decay",
               "exponential:0.25", "--override-checks",
               "--out", str(tmp_path / "f.csv"))
    assert out.returncode in (0, 1, 2, 3)
    assert "Traceback" not in out.stderr


def test_density_unreachable_tolerance_exits_3_without_traceback():
    out = _cli("--quiet", "density", "--f", "gaussian", "--x", "0.5",
               "--tol", "1e-300")
    assert out.returncode == 3
    assert "numeric failure: density error bound" in out.stderr
    assert "Traceback" not in out.stderr


def test_density_out_reruns_byte_identical(tmp_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        path = str(tmp_path / name)
        assert run("--quiet", "density", "--f", "cauchy", "--out", path) == 0
        outs.append((read_bytes(path), read_bytes(path + ".meta.json")))
    assert outs[0] == outs[1]
    assert read_lines(str(tmp_path / "one.csv"))[0] == "x,density"


@pytest.mark.parametrize("header", ["t,psi\n", "v\n"])
def test_header_only_tables_print_only_the_error_line(tmp_path, header):
    table = tmp_path / "empty.csv"
    table.write_text(header)
    if header == "v\n":
        argv = ["verify", "--samples", str(table), "--target", "std_normal",
                "--report", str(tmp_path / "r.json")]
    else:
        argv = ["invert", "--psi", f"table:{table}", "--psi-decay",
                "gaussian", "--out", str(tmp_path / "f.csv")]
    out = _cli("--quiet", *argv)
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


@pytest.mark.parametrize("argv,rc,says", [
    (["transform", "--kind", "fourier1", "--g", "lorentz:0", "--t", "1,0"],
     2, "error: lorentz:<a> needs a finite a > 0, not 0.0"),
    (["transform", "--kind", "fourier1", "--g", "exp:1e-300", "--t", "1"],
     2, "error: decay parameter 1e-300 is outside [1e-100, 1e100]"),
    (["invert", "--psi", "table:{dir}/psi.csv", "--psi-decay",
      "gaussian:1e-300", "--out", "{dir}/f.csv"],
     2, "error: --psi-decay gaussian:1e-300: decay parameter 1e-300 is "
        "outside [1e-100, 1e100]"),
    (["invert", "--psi", "table:{dir}/psi.csv", "--psi-decay",
      "exponential:1e300", "--out", "{dir}/f.csv"],
     2, "error: --psi-decay exponential:1e300: decay parameter 1e+300 is "
        "outside [1e-100, 1e100]"),
    (["density", "--f", "gaussian", "--x-grid", "1:2"],
     2, "error: --x-grid takes lo:hi:n, not '1:2'"),
    (["density", "--f", "gaussian", "--x-grid", "1:2:0"],
     2, "error: --x-grid needs n >= 1, not '1:2:0'"),
    (["density", "--f", "gaussian", "--x", ","],
     2, "error: --x takes comma-separated numbers, not ','"),
    (["charfn", "--f", "gaussian", "--t", "1,,2"],
     2, "error: --t takes comma-separated numbers, not '1,,2'"),
    (["pipeline", "--psi", "gaussian", "--ks-threshold", "nan",
      "--out-dir", "{dir}/out"],
     2, "error: --ks-threshold must be in (0, 1], not nan"),
    (["verify", "--samples", "{dir}/psi.csv", "--target", "std_normal",
      "--ks-threshold", "-1", "--report", "{dir}/r.json"],
     2, "error: --ks-threshold must be in (0, 1], not -1.0"),
    (["pipeline", "--psi", "gaussian", "--seed", "-1",
      "--out-dir", "{dir}/out"],
     2, "error: --seed must be in [0, 2^64), not -1"),
    (["sample", "--f", "gaussian", "--seed", str(2 ** 64),
      "--out", "{dir}/s.csv"],
     2, f"error: --seed must be in [0, 2^64), not {2 ** 64}"),
    (["charfn", "--f", "gaussian", "--t", "1", "--tol", "inf",
      "--out", "{dir}/c.csv"],
     2, "error: tolerances must be finite and positive"),
    (["invert", "--psi", "gaussian", "--table-points", "0",
      "--out", "{dir}/f.csv"],
     2, "error: --table-points must be >= 1, not 0"),
    (["invert", "--psi", "gaussian", "--table-points", "-3",
      "--out", "{dir}/f.csv"],
     2, "error: --table-points must be >= 1, not -3")],
    ids=["lorentz-0", "exp-tiny", "gaussian-tiny", "exponential-huge",
         "x-grid", "x-grid-n0", "x-empty", "t-empty-item", "ks-nan",
         "ks-negative", "seed-negative", "seed-2^64", "tol-inf",
         "table-points-0", "table-points-negative"])
def test_extreme_inputs_print_one_error_line(tmp_path, argv, rc, says):
    # decay scales whose float arithmetic would overflow and malformed
    # or meaningless values are usage errors: one line on stderr, no
    # traceback, and no file written
    _gaussian_psi_table(tmp_path / "psi.csv")
    out = _cli("--quiet", *(a.format(dir=tmp_path) for a in argv))
    assert out.returncode == rc
    assert out.stderr.splitlines() == [says], out.stderr
    assert out.stdout == ""
    assert os.listdir(tmp_path) == ["psi.csv"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_nonfinite_samples_are_a_usage_error(tmp_path, value):
    samples = tmp_path / "s.csv"
    samples.write_text(f"v\n-0.5\n{value}\n1.0\n")
    out = _cli("--quiet", "verify", "--samples", str(samples), "--target",
               "std_normal", "--report", str(tmp_path / "r.json"))
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        f"error: {samples}: non-finite values in the batch"], out.stderr
    assert os.listdir(tmp_path) == ["s.csv"]


def test_quiet_pipeline_prints_no_heuristic(tmp_path):
    # the cauchy target's kink at t = 0 is a check_L heuristic
    out = _cli("--quiet", "pipeline", "--psi", "cauchy",
               "--out-dir", str(tmp_path))
    assert out.returncode == 0
    assert out.stderr == ""


def test_pipeline_prints_each_heuristic_once_as_a_warn_line(tmp_path,
                                                            capsys):
    assert run("pipeline", "--psi", "cauchy", "--out-dir",
               str(tmp_path)) == 0
    err = capsys.readouterr().err.splitlines()
    warns = [line for line in err if "heuristic" in line]
    assert len(warns) == 1
    assert warns[0].startswith("WARN  heuristic: psi looks "
                               "non-differentiable at t=0")


def test_quiet_override_prints_only_the_numeric_failure(tmp_path):
    # cos(3t) e^{-t/4} fails nonnegativity and sets off four heuristics;
    # past the override, its Hankel transform fails to converge
    t = np.linspace(0.0, 40.0, 401)
    table = tmp_path / "psi.csv"
    table.write_text("t,psi\n" + "".join(
        f"{a:.17g},{math.cos(3.0 * a) * math.exp(-0.25 * a):.17g}\n"
        for a in t.tolist()))
    out = _cli("--quiet", "invert", "--psi", f"table:{table}",
               "--psi-decay", "exponential:0.25", "--override-checks",
               "--out", str(tmp_path / "f.csv"))
    assert out.returncode == 3
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), \
        out.stderr


def test_main_calls_share_one_parser_and_no_state(tmp_path, capsys):
    import sinelaw.cli as cli
    argv = ["sample", "--f", "gaussian", "--n", "10", "--count", "20",
            "--out", str(tmp_path / "s.csv")]
    cli._command_parser.cache_clear()
    assert run("--quiet", *argv) == 0
    assert capsys.readouterr().err == ""
    # the second call reuses the parser, but not the first call's --quiet
    assert run(*argv) == 0
    assert "wrote " in capsys.readouterr().err
    # one parser per process for the command run, none for the others
    assert cli._parser() is cli._parser()
    info = cli._command_parser.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


@pytest.mark.parametrize("flag", ["--n", "--count"])
def test_pipeline_rejects_bad_size_before_the_solve(tmp_path, capsys,
                                                    monkeypatch, flag):
    import sinelaw.cli as cli
    solved = []
    monkeypatch.setattr(cli, "solve_inverse",
                        lambda *a, **k: solved.append(1))
    out_dir = tmp_path / "out"
    assert run("pipeline", "--psi", "gaussian", flag, "0",
               "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: n and count must be >= 1"]
    assert solved == []
    assert not out_dir.exists()


# the options of each command, as its --help lists them
_OPTIONS = {
    "sample": ["--f", "--n", "--count", "--seed", "--out"],
    "charfn": ["--f", "--t", "--tol", "--out"],
    "density": ["--f", "--x", "--x-grid", "--tol", "--out"],
    "invert": ["--psi", "--psi-decay", "--table-points", "--override-checks",
               "--out"],
    "verify": ["--samples", "--target", "--ks-threshold", "--report"],
    "pipeline": ["--psi", "--n", "--count", "--seed", "--ks-threshold",
                 "--out-dir"],
    "transform": ["--kind", "--g", "--t", "--tol", "--out"],
    "selfcheck": [],
}


def _exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_command_help_lists_its_options(command, capsys):
    rc, out, err = _exit_code([command, "--help"], capsys)
    assert rc == 0 and err == ""
    assert out.startswith(f"usage: sinelaw {command} [-h] [--quiet]")
    listed = [line.split()[0].rstrip(",") for line in out.splitlines()
              if line.startswith("  -")]
    assert listed == ["-h", "--quiet"] + _OPTIONS[command]


def test_top_level_help_lists_every_command(capsys):
    from sinelaw.cli import _COMMANDS
    rc, out, err = _exit_code(["--help"], capsys)
    assert rc == 0 and err == ""
    assert out.startswith("usage: sinelaw [-h] [--quiet]")
    for name, (_, help_, _) in _COMMANDS.items():
        assert f"    {name:<20}{help_.split()[0]}" in out
    assert sorted(_COMMANDS) == sorted(_OPTIONS)


@pytest.mark.parametrize("where", ["before", "after"])
def test_quiet_before_or_after_the_command(tmp_path, capsys, where):
    argv = ["sample", "--f", "gaussian", "--n", "10", "--count", "20",
            "--out", str(tmp_path / "s.csv")]
    argv = ["--quiet", *argv] if where == "before" else [*argv, "--quiet"]
    assert run(*argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,says", [
    (["bogus"], "sinelaw: error: argument command: invalid choice: 'bogus'"),
    (["selfcheck", "--bogus"], "sinelaw: error: unrecognized arguments: "
                               "--bogus"),
    (["verify", "--samples", "s.csv"],
     "sinelaw verify: error: the following arguments are required: "
     "--target")], ids=["command", "option", "required"])
def test_bad_command_lines_exit_2_with_usage(argv, says, capsys):
    rc, out, err = _exit_code(argv, capsys)
    assert rc == 2 and out == ""
    assert err.startswith("usage: sinelaw")
    assert err.splitlines()[-1].startswith(says), err
