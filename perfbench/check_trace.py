"""Check that traced work counts repeat, and measure tracing overhead.

For each workload in BENCHMARK.json: one untraced run and two traced
runs of run.py with seed 1 and the benchmark's run_seconds. Every
per-layer metric with unit `count` must be equal in the two traced runs.
The tracing overhead is the traced round's time minus the untraced
median round, `round_s`.

    python3 perfbench/check_trace.py

Prints one JSON line per workload; exits 1 if any count differs or any
run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{out.returncode}: {out.stderr.strip()[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


SEED = 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    seconds = spec["run_seconds"]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain, _ = _run(workload, SEED, seconds, 0)
        traced = [_run(workload, SEED, seconds, 1) for _ in range(2)]
        counts = [{k: res["metrics"][k]["value"] for k in counted}
                  for _, res in traced]
        differ = sorted(k for k in counted if counts[0][k] != counts[1][k])
        overhead = {}
        for key, base in plain["end_to_end"].items():
            if key == "setup_s":
                continue
            extra = traced[0][0]["end_to_end"][key] - base
            overhead[key] = {"traced_minus_untraced_s": extra,
                             "share": extra / base}
        ok = ok and not differ
        print(json.dumps({"workload": workload, "seed": SEED,
                          "counts_repeat": not differ, "differing": differ,
                          "counts": counts[0], "tracing_overhead": overhead}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
