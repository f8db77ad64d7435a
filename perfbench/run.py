#!/usr/bin/env python3
"""Lock-service benchmark: build perfbench/ and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--short]

Run from the repository root. The first call configures and builds the
benchmark (CMake, into .bench_build/perfbench); later calls only rebuild
what changed. The last line of stdout is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1 (see BENCHMARK.json and perfbench/README.md). The line before it
carries host and build metadata and every metric with its sample count.
"""
import argparse
import fcntl
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_lockservice"
WORKLOADS = ("point-uniform", "hot-deadline", "txn-multikey", "shm-service")
# Sources the benchmark compiles; without them there is nothing to measure.
REQUIRED = ("src/aml/table/named_table.hpp", "src/aml/ipc/shm_table.hpp")
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--short", action="store_true",
                   help="reduced repetitions, for the self-test")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    return args


def build(env):
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        fail("library sources missing (" + ", ".join(missing) + "); "
             "run from a full checkout of the repository", 3)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found", 3)
    BUILD.mkdir(parents=True, exist_ok=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            remaining = deadline - time.monotonic()
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, env=env,
                                      timeout=max(1, remaining))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))


def git_rev():
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    return os.environ.get("AMLOCK_GIT_REV", "unknown")


def main():
    args = parse_args()
    start = time.monotonic()
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    build(env)
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev(), "--trace-dir", str(traces)]
    if args.short:
        cmd.append("--short")
    # The run gets what is left of the per-run deadline, counted from the
    # end of a first build (which has its own, longer allowance).
    budget = RUN_DEADLINE_S - min(time.monotonic() - start, 20)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {budget:.0f} s")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
