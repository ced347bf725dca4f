"""sinelaw benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload inverse|direct --seed N \
        --seconds S --trace 0|1

The package is imported from ./src, so nothing needs installing. With
--trace 0 the run repeats cycles of set-up and round: a cycle sets up
afresh until it has spent SETUP_SECONDS on set-ups (at least once) and
runs one round of the workload on its last set-up. Cycles repeat while
the next, as long as the last, would end less than half a cycle after
--seconds, counted from the start; so a run measures about --seconds,
with set-ups spread over it like the rounds. End-to-end metrics are
medians over set-ups and rounds. With --trace 1 it wraps every layer of
the package (see layertrace.py), sets up once, runs one round, and
reports the per-layer metrics of that set-up and round. Metric names and
units come from BENCHMARK.json.

The last line of standard output is the result object; the line before
it holds the details: the figures named after the user commands,
provenance, failures and, when traced, work counts and the J0 batch-size
histogram. Exits 1 when a correctness check fails, 2 when the checkout
has no package to measure.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SECONDS = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads():
    """SINELAW_WORKERS=1; BLAS/OpenMP pools at most one thread per CPU."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["SINELAW_WORKERS"] = "1"
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, nproc))
        except ValueError:
            n = nproc
        os.environ[var] = str(max(1, min(n, nproc)))
    return nproc


def _source_files(top):
    for base, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                yield os.path.join(base, name)


def _source_digest_and_lines():
    """Digest of the package and benchmark sources; package line count.

    The digest keys the repeatability records, so a change to either
    side starts them afresh.
    """
    digest = hashlib.sha256()
    lines = 0
    package = os.path.join(SRC, "sinelaw")
    for top in (package, os.path.dirname(os.path.abspath(__file__))):
        for path in _source_files(top):
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
            if top == package:
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _provenance(sl, np, nproc, seed, src_lines):
    return {
        "backend": sl.kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS + ("SINELAW_WORKERS",)},
        "seed": seed,
        "src_lines": src_lines,
    }


def _layer_value(tracer, name):
    if name in tracer.counts:
        return tracer.counts[name]
    layer, _, field = name.rpartition(".")
    return tracer.layer(layer)[field]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sinelaw", "__init__.py")):
        print(f"error: no sinelaw package under {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    sys.path.insert(0, SRC)
    import numpy as np
    import layertrace
    from workloads import WORKLOADS, Run, import_sinelaw

    digest, src_lines = _source_digest_and_lines()
    record_dir = os.path.join(OUT, "records", digest[:16])
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(record_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload]()
        run = Run(work_dir, record_dir)
        tracer = layertrace.Tracer() if args.trace else None
        setups = []

        def set_up():
            t0 = time.perf_counter()
            sl = import_sinelaw()
            if tracer:
                layertrace.install(tracer)
            wl.setup(sl, args.seed, np.random.default_rng(args.seed))
            setups.append(time.perf_counter() - t0)
            return sl

        # a traced run is one set-up and one round
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            while True:
                sl = set_up()
                if not sl.__file__.startswith(SRC + os.sep):
                    print(f"error: imported sinelaw from {sl.__file__}",
                          file=sys.stderr)
                    return 2
                if tracer or time.perf_counter() - t0 >= SETUP_SECONDS:
                    break
            run.start_round()
            wl.round(run)
            last = time.perf_counter() - t0
            if tracer or time.perf_counter() - start + last / 2 > args.seconds:
                break
        if tracer:
            metrics = {m["name"]: {"value": _layer_value(tracer, m["name"]),
                                   "unit": m["unit"]}
                       for m in spec["per_layer"]}
            layer_stats = {name: tracer.layer(name)
                           for name in sorted(tracer.stats)}
            layer_counts = dict(tracer.counts)
            j0_batches = {str(k): v for k, v in
                          sorted(tracer.j0_batch_sizes.items())}
            spans = tracer.span_dump()
            tracer = None
        try:
            wl.checks(run)
        except Exception as exc:  # a check that cannot run is a failure
            run.attempted += 1
            run.failures.append(f"checks raised {exc!r}")

        end_to_end = {"setup_s": statistics.median(setups),
                      "round_s": run.median("round")}
        figures = {f"{t}_s": {"value": run.median(t), "unit": "s"}
                   for t in wl.targets}
        figures.update({k: {"value": v, "unit": u}
                        for k, (v, u) in wl.figures(run).items()})
        figures["failed_ratio"] = {"value": run.failed / run.attempted,
                                   "unit": "ratio"}
        detail = {
            "workload": args.workload, "trace": args.trace,
            "rounds_s": [r["round"] for r in run.rounds],
            "setups_s": setups,
            "end_to_end": end_to_end, "figures": figures,
            "failures": run.failures, "info": run.info,
            "provenance": _provenance(sl, np, nproc, args.seed, src_lines),
        }
        if args.trace:
            trace_path = os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump({"layers": layer_stats, "spans": spans}, fh)
            detail.update(counts=layer_counts, j0_batch_sizes=j0_batches,
                          trace_file=os.path.relpath(trace_path, ROOT))
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in end_to_end.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    for line in run.failures:
        print(f"check failed: {line}", file=sys.stderr)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
