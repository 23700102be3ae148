#!/usr/bin/env python3
"""Builds the optimizer in Release and runs one workload of the benchmark.

    python3 perfbench/run.py --workload serve-mix|tpch-exec|paper-fig4 \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds this
package (the optimizer library from src/ plus the benchmark program) into
.bench_build/perfbench-release; later runs only check that the build is up
to date. Each run prints the two plan digests as context, then the
workload's own output, whose last line is the result object
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1)
writes its spans to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench-release")
WORKLOADS = ("serve-mix", "tpch-exec", "paper-fig4")
# A run must end within 180 s; leave room for start-up and shutdown.
RUN_DEADLINE_S = 170


def fail(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    """Runs a build step with its output appended to `log`."""
    with open(log, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(OUT, exist_ok=True)
    log = os.path.join(OUT, "perfbench-build.log")
    with open(os.path.join(OUT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            if run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
                fail("configuring the benchmark failed; see " + log)
        jobs = str(min(4, os.cpu_count() or 1))
        if run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                       "volcano_perfbench", "plan_digest"], log) != 0:
            fail("building the benchmark failed; see " + log)


def digest(*flags):
    out = subprocess.run([os.path.join(BUILD, "plan_digest"), *flags],
                         capture_output=True, text=True, timeout=60).stdout
    for line in out.splitlines():
        if line.startswith("digest: "):
            return line.split()[1]
    return "unknown"


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()  # volcano_perfbench checks the values' ranges

    build()
    print("# digests " + json.dumps({"grid": digest(), "tpch": digest("--tpch")}),
          flush=True)

    cmd = [os.path.join(BUILD, "volcano_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    remaining = RUN_DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within %d s" % RUN_DEADLINE_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail("the workload exited with code %d" % proc.returncode)


if __name__ == "__main__":
    main()
