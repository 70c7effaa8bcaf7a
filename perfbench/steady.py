#!/usr/bin/env python3
"""Steadiness check for the lifecycle benchmark.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--sets 2]
                                [--repeat-check]

Takes --sets sets of runs. In each set, every workload of BENCHMARK.json
runs --runs times for run_seconds, seed --seed0 + i on round i, walking
the workloads forward on even rounds and backward on odd ones so slow
phases of the host fall on different workloads.

Each run's metrics go to stderr as it ends. For each set, workload and
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
beside the metric's bound: "ok" under a third of the
bound, "in" under the bound, "WIDE" past it. For every set after the
first it also prints how far each median moved from the first set's in
the metric's worse direction, as a share of the first median, with the
same verdicts. Every metric, setup_s included, gets both checks. The
exit code is 1 if any spread or move is past its bound.

--repeat-check also runs each workload twice more with --trace 1 on seed
--seed0 and fails if any count metric differs between the two runs.

Run from the root of a checkout; every run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    return result


def verdict(share, bound):
    return "ok" if share < bound / 3 else ("in" if share <= bound else "WIDE")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    failed = False
    medians = []  # per set: {(workload, metric): median}
    for s in range(args.sets):
        values = {w: {} for w in workloads}
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                res = run(w, args.seed0 + i, seconds, 0)
                for name, m in res["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                print("set %d round %d %s seed %d: %s" %
                      (s, i, w, args.seed0 + i,
                       " ".join("%s=%.6g" % (n, m["value"])
                                for n, m in res["metrics"].items())),
                      file=sys.stderr, flush=True)

        print("set %d: %d runs per workload, seeds %d-%d, %d s each" %
              (s, args.runs, args.seed0, args.seed0 + args.runs - 1, seconds))
        print("%-14s %-14s %12s %12s %12s %8s %6s" %
              ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
        medians.append({})
        for w in workloads:
            for name, vals in values[w].items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                bound = metrics[name]["bound"]
                v = verdict(spread, bound)
                failed |= v == "WIDE"
                medians[-1][(w, name)] = med
                print("%-14s %-14s %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %s" %
                      (w, name, med, q1, q3, 100 * spread, 100 * bound, v))

        if s > 0:
            print("set %d against set 0: median move in the worse direction" % s)
            for (w, name), med in medians[-1].items():
                first = medians[0][(w, name)]
                worse = (med - first if metrics[name]["better"] == "lower"
                         else first - med) / first
                bound = metrics[name]["bound"]
                v = verdict(worse, bound)
                failed |= v == "WIDE"
                print("%-14s %-14s %12.6g -> %12.6g %+7.1f%% %5.0f%% %s" %
                      (w, name, first, med, 100 * worse, 100 * bound, v))
        sys.stdout.flush()

    if args.repeat_check:
        for w in workloads:
            a, b = (run(w, args.seed0, seconds, 1) for _ in range(2))
            for name, m in a["metrics"].items():
                if m["unit"] in ("count", "bytes") and m["value"] != b["metrics"][name]["value"]:
                    sys.exit("count %s differs between runs on %s" % (name, w))
        print("count metrics repeat exactly across runs: " + ", ".join(workloads))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
