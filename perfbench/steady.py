#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics hold steady.

    python3 perfbench/steady.py [--workloads serve-mix,...] [--seeds 10]
                                [--sets 2] [--json FILE]

Runs the BENCHMARK.json command, untraced, once per workload and seed, in
`--sets` sets of `--seeds` runs; set k uses seeds k*N+1 .. k*N+N. For each
set and end-to-end metric it prints the median of the runs and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Between the
first set and each later one it prints how much worse the later median is,
as a share of the first. Run from the repository root.

The exit code follows the acceptance rule the bounds are set for:

  * every run is correct, and every run of a workload, in every set, fails
    exactly the same share of the operations it attempted;
  * every spread is within its metric's bound, except that of setup_s: the
    rule leaves set-up time's spread unchecked (set-up takes milliseconds,
    and the host's stalls move it most) and holds it to the next rule only;
  * no later set's median is worse than the first set's by more than the
    bound, for every metric, setup_s included.

A spread at or above a third of its bound is marked "above target": it
passes the rule, but leaves little room for a second set to agree.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d: exit %d\n%s" % (
            workload, seed, out.returncode, out.stderr))
    return json.loads(lines[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    # results[set][workload] = list of result objects
    results = []
    for k in range(args.sets):
        results.append({})
        for workload in workloads:
            seeds = range(k * args.seeds + 1, (k + 1) * args.seeds + 1)
            results[k][workload] = [run_once(bench, workload, s)
                                    for s in seeds]
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f)

    ok = True
    for workload in workloads:
        shares = set()
        for k in range(args.sets):
            for seed_index, r in enumerate(results[k][workload]):
                shares.add(fractions.Fraction(r["failed"], r["attempted"]))
                if not r["correct"]:
                    ok = False
                    print("%s set %d run %d: not correct" % (
                        workload, k + 1, seed_index + 1))
        if len(shares) != 1:
            ok = False
        print("%s: failed share %s%s" % (
            workload, " ".join(str(s) for s in sorted(shares)),
            "" if len(shares) == 1 else "  <-- differs between runs"))
        for name, m in metrics.items():
            values = [[r["metrics"][name]["value"]
                       for r in results[k][workload]]
                      for k in range(args.sets)]
            medians = [statistics.median(v) for v in values]
            cells = []
            for k, v in enumerate(values):
                s = spread(v)
                mark = ""
                if s > m["bound"] and name != "setup_s":
                    mark, ok = " FAIL", False
                elif s >= m["bound"] / 3:
                    mark = " above target"
                cells.append("set %d median %.6g spread %.3f%s" % (
                    k + 1, medians[k], s, mark))
            for k in range(1, args.sets):
                worse = (medians[k] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                mark = ""
                if worse > m["bound"]:
                    mark, ok = " FAIL", False
                cells.append("set %d worse by %+.3f%s" % (k + 1, worse, mark))
            print("  %-15s bound %.2f | %s" % (name, m["bound"],
                                               " | ".join(cells)))
    print("pass" if ok else "fail")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
