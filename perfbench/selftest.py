#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. Builds and runs checks_test: each correctness check passes on real
   output and rejects a deliberately wrong one.
2. Runs every workload of BENCHMARK.json for one second, untraced and
   traced, and checks the result line: exactly the keys correct, attempted,
   failed and metrics; correct, and no failed operation but the known
   fault's (KNOWN_FAULT_SHARE); and exactly the end-to-end (untraced) or
   per-layer (traced) metrics BENCHMARK.json names, each with its unit.
3. Runs the command in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Run from the repository root; everything it writes stays under .bench_build.
"""

import fractions
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-release")

failures = []

# The share of operations that fail in every run because of a known fault of
# the optimizer: paper-fig4 optimizes one fixed query per lap of 1,345 whose
# plan is dearer than the EXODUS baseline's (see README.md).
KNOWN_FAULT_SHARE = {"paper-fig4": fractions.Fraction(1, 1345)}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(bench, cwd, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

    # Builds the benchmark (first run) before the unit tests need the tree.
    run_bench(bench, ROOT, bench["workloads"][0]["name"], 0)
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                            "perfbench_checks_test"],
                           capture_output=True, text=True)
    check(built.returncode == 0, "checks_test builds")
    if built.returncode == 0:
        tests = subprocess.run([os.path.join(BUILD, "perfbench_checks_test")],
                               capture_output=True, text=True)
        check(tests.returncode == 0, "checks_test passes")
        if tests.returncode != 0:
            print(tests.stdout[-4000:])

    for w in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            name = "%s --trace %d" % (w["name"], trace)
            out = run_bench(bench, ROOT, w["name"], trace)
            lines = out.stdout.strip().splitlines()
            check(out.returncode == 0 and lines, name + ": exits 0")
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], name + ": result keys")
            share = fractions.Fraction(result["failed"],
                                       max(1, result["attempted"]))
            check(result["correct"] is True and result["attempted"] >= 1
                  and share == KNOWN_FAULT_SHARE.get(w["name"], 0),
                  name + ": correct, nothing failed but the known fault")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, name + ": prints exactly its listed metrics")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  name + ": values are numbers")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    out = run_bench(bench, bare, bench["workloads"][0]["name"], 0)
    last = (out.stdout.strip().splitlines() or [""])[-1]
    check(out.returncode != 0 and not last.startswith("{"),
          "fails without printing a result when the sources are absent")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
