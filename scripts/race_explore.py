#!/usr/bin/env python3
"""Seed-sweep driver for DcfaRace schedule exploration.

Runs the protocol test suites under DCFA_SIM_SCHED=explore with DCFA_CHECK=full
across a range of seeds, one ctest invocation per (suite, seed). Each seed is
one reproducible interleaving of the logically-concurrent event set (see
docs/simulator.md); a violation report carries its replay token
("[schedule=x1:<hex>]"), which this driver extracts and prints so the failure
can be replayed exactly with:

    DCFA_SIM_SCHEDULE=x1:<hex> ctest -R <test> ...

Exit status: 0 if every suite passed on every seed, 1 if any violation or
test failure was seen, 2 on usage/setup errors.
"""

import argparse
import os
import re
import subprocess
import sys
import time

# Suites: ctest -R regexes over the tiers most exposed to reordering.
# Keyed names let CI and developers pick subsets (--suites rma,nbc).
SUITES = {
    "p2p": r"^(test_p2p|test_protocols|test_wildcard_semantics|test_probe_ssend)$",
    "nbc": r"^(test_collectives|test_nbc_random|test_collective_storm)$",
    "rma": r"^(test_window|test_rma_random|test_persistent)$",
    "traffic": r"^(test_traffic_gen)$",
    "faults": r"^(test_fatal_faults|test_rank_failure|test_traffic_soak)$",
}

TOKEN_RE = re.compile(r"\[schedule=(x1:[0-9a-f]+)\]")


def run_one(build_dir, suite, regex, seed, timeout):
    env = dict(os.environ)
    env["DCFA_SIM_SCHED"] = "explore"
    env["DCFA_SIM_SEED"] = str(seed)
    env["DCFA_CHECK"] = "full"
    # A replay token in the environment would override the sweep seed.
    env.pop("DCFA_SIM_SCHEDULE", None)
    cmd = ["ctest", "--test-dir", build_dir, "-R", regex,
           "--output-on-failure"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = (e.stdout or "") + (e.stderr or "")
        return False, out + "\n[race_explore] TIMEOUT after %ds" % timeout
    return proc.returncode == 0, proc.stdout + proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory containing CTestTestfile")
    ap.add_argument("--seeds", type=int, default=16,
                    help="number of seeds to sweep (default 16)")
    ap.add_argument("--start-seed", type=int, default=1,
                    help="first seed (default 1; seed 0 is the Fifo-like "
                         "baseline many tests already run)")
    ap.add_argument("--suites", default=",".join(SUITES),
                    help="comma-separated subset of: " + ", ".join(SUITES))
    ap.add_argument("--budget", type=float, default=0.0,
                    help="wall-clock budget in seconds; the sweep stops "
                         "cleanly (still exit 0) once exceeded")
    ap.add_argument("--timeout", type=float, default=600.0,
                    help="per-ctest-invocation timeout in seconds")
    args = ap.parse_args()

    suites = []
    for name in args.suites.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in SUITES:
            print("race_explore: unknown suite '%s' (know: %s)"
                  % (name, ", ".join(SUITES)), file=sys.stderr)
            return 2
        suites.append(name)
    if not suites:
        print("race_explore: no suites selected", file=sys.stderr)
        return 2
    if not os.path.isdir(args.build_dir):
        print("race_explore: build dir '%s' not found" % args.build_dir,
              file=sys.stderr)
        return 2

    started = time.monotonic()
    failures = []
    ran = 0
    stopped_early = False
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        for suite in suites:
            if args.budget > 0 and time.monotonic() - started > args.budget:
                stopped_early = True
                break
            ok, output = run_one(args.build_dir, suite, SUITES[suite], seed,
                                 args.timeout)
            ran += 1
            tokens = sorted(set(TOKEN_RE.findall(output)))
            status = "ok" if ok else "FAIL"
            print("[race_explore] suite=%-7s seed=%-4d %s" %
                  (suite, seed, status), flush=True)
            if not ok:
                failures.append((suite, seed, tokens, output))
                for tok in tokens:
                    print("[race_explore]   replay: DCFA_SIM_SCHEDULE=%s "
                          "DCFA_CHECK=full ctest --test-dir %s -R '%s'"
                          % (tok, args.build_dir, SUITES[suite]), flush=True)
        if stopped_early:
            break

    elapsed = time.monotonic() - started
    print("[race_explore] %d run(s), %d failure(s), %.1fs%s"
          % (ran, len(failures), elapsed,
             " (budget reached)" if stopped_early else ""))
    if failures:
        print("\n=== first failure output ===\n")
        print(failures[0][3][-8000:])
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
