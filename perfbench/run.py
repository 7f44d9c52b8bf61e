#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

With ``--workload`` the benchmark binary's output passes through
unchanged: its last line is the JSON result and its exit code is this
script's. Without it, every workload runs in turn in its own process and
a summary table follows; the exit code is non-zero if any run failed.
The binary is built from source first (``cargo build --release``) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["train", "serve_scan", "serve_ann", "serve_churn"]
# A run must end within 180 s; stop a stuck one a little before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(root):
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"[perfbench] build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "sarn-perfbench")


def run_one(binary, root, workload, seed, seconds, trace, capture):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] {workload} exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout or ""


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 2
    if args.workload:
        code, _ = run_one(binary, root, args.workload, args.seed, args.seconds,
                          args.trace, capture=False)
        return code

    rows, failed = [], False
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, out = run_one(binary, root, workload, args.seed, args.seconds,
                            args.trace, capture=True)
        print(out, end="", flush=True)
        failed |= code != 0
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            rows.append((workload, "no result", "", ""))
            failed = True
            continue
        for name, m in result["metrics"].items():
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
        rows.append((workload, "correct", str(result["correct"]),
                     f"{result['failed']}/{result['attempted']} failed"))
    print("\nworkload      metric                      value         unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<13} {name:<27} {value:<13} {unit}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
