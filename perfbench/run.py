#!/usr/bin/env python3
"""Builds and runs the transactional-engine benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload m1_read_mostly --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the procsim
libraries from src/ plus the program in perfbench/src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.  Later runs only
re-check the build.  The program's stdout is passed through; its last line is
the JSON result.  Spans of a traced run go to <build>/traces/.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# A run's set-up, recoveries and traced replay take a fixed allowance on top
# of a small multiple of the timed stream's --seconds.
RUN_TIMEOUT_BASE_S = 100
RUN_TIMEOUT_PER_SECOND = 4
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout carries only results.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                log("build step failed: " + " ".join(step))
                return None
    binary = build_dir / "perfbench"
    return binary if binary.exists() else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    entries = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def check_result(line, trace):
    """True if `line` is a complete result naming every declared metric."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("the last output line is not JSON")
        return False
    if set(result) != RESULT_KEYS:
        log(f"result keys {sorted(result)} differ from {sorted(RESULT_KEYS)}")
        return False
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            log(f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(expected) - set(got))}, extra "
                f"{sorted(set(got) - set(expected))}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    binary = build(build_dir)
    if binary is None:
        return 1

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-{args.seed}.jsonl")]
    timeout = RUN_TIMEOUT_BASE_S + RUN_TIMEOUT_PER_SECOND * args.seconds
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"run exceeded {timeout} s and was stopped")
            return 1
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with code {proc.returncode}")
        return 1
    if not check_result(lines[-1], args.trace):
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
