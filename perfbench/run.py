#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload phi_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
simulator libraries and the driver in Release mode under $CARGO_TARGET_DIR
(default .bench_build); later calls only re-check the build. The driver runs
with the simulator's environment pinned (DCFA_CHECK=cheap,
DCFA_SIM_SCHED=fiber, every other DCFA_* variable unset) and its last stdout
line is the result object. Exits non-zero, printing no result, when the
simulator sources are missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
# The driver itself stops after --seconds plus one iteration; this bounds a
# hung simulation well inside the harness's 180 s limit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_revision():
    """Git revision when available, else a digest of every source file."""
    if (REPO / ".git").exists():
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for root in (REPO / "src", HERE):
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(REPO)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build(build_dir):
    env = dict(os.environ, TMPDIR=str(build_dir))
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "dcfa_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return build_dir / "dcfa_perfbench"


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCFA_")}
    env["DCFA_CHECK"] = "cheap"
    env["DCFA_SIM_SCHED"] = "fiber"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (REPO / "src" / "mpi" / "runtime.hpp").is_file():
        log(f"simulator sources not found under {REPO / 'src'}")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO / target
    build_dir = target / "perfbench"
    binary = build(build_dir)
    if binary is None or not binary.is_file():
        log("build failed")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", source_revision()]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log(f"driver exited {proc.returncode} without a result")
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
