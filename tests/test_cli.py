"""CLI contract tests: exit codes, file formats, sidecars, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sinelaw.cli import _load_psi, _write_csv, main
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


@pytest.mark.filterwarnings("ignore:heuristic")
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


@pytest.mark.parametrize("const", ["const:nan", "const:inf"])
def test_nonfinite_constant_f_is_a_usage_error(tmp_path, const):
    out = _cli("--quiet", "sample", "--f", const, "--n", "10",
               "--count", "50", "--out", str(tmp_path / "s.csv"))
    assert out.returncode == 2
    assert "must be finite" in out.stderr
    assert "Traceback" not in out.stderr


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

    def counted(psi, grid=None):
        reports.append(real(psi, grid))
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


def test_write_csv_formats_every_value_as_a_17_digit_float(tmp_path):
    vals = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3, 3, -7,
            2**60, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0]
    ints = np.arange(len(vals))
    out = tmp_path / "v.csv"
    _write_csv(str(out), "a,b", vals, ints)
    want = "a,b\n" + "".join(f"{float(a):.17g},{float(b):.17g}\n"
                             for a, b in zip(vals, ints))
    assert read_bytes(out) == want.encode()


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
