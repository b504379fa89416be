#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload flow_cpu2|sweep_rand1|tune_rent1 \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the maestro libraries and the perfbench
harness from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload in its own process. Standard
output ends with one JSON line: correct, attempted, failed and the metrics
that BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1). With --trace 1 the lines before it are the per-layer
attribution table. Each result is also kept under <build dir>/results/.

Exits non-zero without a result line if the sources are missing, the build
fails, the run fails or times out, or the metrics do not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("flow_cpu2", "sweep_rand1", "tune_rent1")
BUILD_TIMEOUT_S = 850
# A run lasts --seconds plus set-up and at most one more unit of work.
RUN_MARGIN_S = 140


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Runs a build command with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_checked(["cmake", "-S", BENCH_DIR, "-B", build_dir, *generator,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        run_checked(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                    BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"maestro sources not found under {ROOT}/src")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {sorted(n for n in want if n in got and got[n] != want[n])}")

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    with open(os.path.join(results_dir, name), "w") as f:
        f.write(proc.stdout)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
