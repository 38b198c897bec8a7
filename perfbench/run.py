#!/usr/bin/env python3
"""Builds and runs the B-Par benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_blstm --seed 1 --seconds 45 --trace 0

It configures and builds perfbench/ (which pulls in the library from src/)
into .bench_build/, runs one workload, checks the result line against
BENCHMARK.json and prints it as the last line of standard output. Build
logs go to standard error. Any failure exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Every workload of the benchmark program, with the per-layer metrics (by
# name prefix) whose layer it does not run: the traced result reports them
# as 0, and any other missing metric is an error. The serving workloads are
# not in BENCHMARK.json, so no bound gates them (README.md, "Noise").
NOT_EXERCISED = {
    "train_blstm": ("serve.",),
    "infer_bgru_int8": ("serve.", "train."),
    "serve_blstm_low": ("train.", "serve.mid.", "serve.over."),
    "serve_blstm_load": ("train.", "serve.low."),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs `cmd` in its own process group; on timeout the whole group is
    killed and reaped. Returns (exit code or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "bpar.hpp")):
        fail(f"no B-Par sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        code, _ = run(cmd, max(1.0, deadline - time.monotonic()), sys.stderr)
        if code is None:
            fail(f"build timed out: {' '.join(cmd)}")
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def validate(result, spec, workload, trace):
    """Checks the result line against BENCHMARK.json. Per-layer metrics the
    workload does not exercise (NOT_EXERCISED) are reported as 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("no operation attempted")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    for name, unit in units.items():
        if name not in metrics:
            if not trace or not name.startswith(NOT_EXERCISED[workload]):
                fail(f"metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']}, declared {unit}")
        elif not trace and not metrics[name]["value"] > 0:
            fail(f"end-to-end metric {name} is {metrics[name]['value']}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in NOT_EXERCISED:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"{args.workload} exited with {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    validate(result, spec, args.workload, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
