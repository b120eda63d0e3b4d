#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (README.md in this directory).

    python3 perfbench/selftest.py [--workload NAME ...]

For every workload (default: all in BENCHMARK.json):
  * two untraced runs with the same seed must print identical schedule,
    result and virtual-time digests and bit-identical virtual metrics;
  * a traced run with a held-out seed must be correct, fail no operation,
    pass the outside-in model invariants and report every per-layer metric
    BENCHMARK.json names (the untraced runs every end-to-end one).
Each run is as short as the driver allows (--seconds 1: one pass over the
workload's sub-seeds, the minimum repeats and, untraced, the set-up pass).
Run from the repository root.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SEED = 7
HELD_OUT_SEED = 918273645
VIRTUAL = ("init_virt_ms", "virt_ms", "lat_p50_us", "lat_p99_us")
DIGESTS = ("schedule_digest", "result_digest", "virt_digest")


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    detail = next(l["perfbench_result"] for l in lines
                  if "perfbench_result" in l)
    return proc.returncode, detail, lines[-1]


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    default=None, help="restrict to these workloads")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name in names:
        rc1, d1, r1 = run(name, SEED, 0)
        rc2, d2, r2 = run(name, SEED, 0)
        expect(rc1 == 0 and rc2 == 0 and r1["correct"] and r2["correct"],
               f"{name}: seed {SEED} runs are correct")
        expect(set(r1["metrics"]) == e2e,
               f"{name}: untraced run reports exactly the end-to-end metrics")
        for key in DIGESTS:
            expect(d1[key] == d2[key], f"{name}: {key} repeats ({d1[key]})")
        for key in VIRTUAL:
            a, b = r1["metrics"][key]["value"], r2["metrics"][key]["value"]
            expect(a == b, f"{name}: {key} repeats exactly ({a})")

        rc, _, r = run(name, HELD_OUT_SEED, 1)
        expect(rc == 0 and r["correct"] and r["failed"] == 0,
               f"{name}: held-out seed {HELD_OUT_SEED} runs clean, traced")
        expect(set(r["metrics"]) == layers,
               f"{name}: traced run reports exactly the per-layer metrics")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
