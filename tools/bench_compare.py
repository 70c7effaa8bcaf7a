#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the committed baseline.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.03]

The bench JSON format is flat: {"benchmarks": [{"name": ..., <metric>:
<number>, ...}]}. Metrics fall into three classes, decided by name:

  * timings   — keys ending in "_s"/"_ms" or containing "speedup", and
                latency metrics exported by the obs registry (keys with
                a "_us"/"_ns" component, e.g. fsync_us_sum):
                machine-dependent (CI runners are 1-core and +-30%
                noisy). Reported for information, never gating.
  * context   — workload shape (edges, ops, period, readers, renames,
                shards, threads): must match the baseline exactly, otherwise
                the runs are not comparable and the comparison fails.
  * counters  — keys ending in "_rounds"/"_rescanned" (repair-effort
                counters: replacement rounds, whole-rule index
                rescans), "_bytes"/"_batches" (journal bytes and
                replay counts from the durable store), or
                "_nodes"/"_peak"/"_reused"/"_hits"/"_misses" (DAG pool
                and memo statistics), or "_visited"/"_entries"/
                "_matches"/"_walked" (query-engine work: rules visited,
                memo entries, answers, body nodes walked). All
                deterministic for a fixed
                workload; any difference from the baseline fails — a
                drifting rescan count means a per-round sweep silently
                stopped being damage-proportional, a drifting byte
                count means the journal format changed, and no timing
                gate on a noisy runner would catch either.
  * sizes     — everything else (grammar edge counts, size ratios,
                checkpoint counts): fully deterministic for a fixed
                workload, so any increase beyond the threshold is a
                real compression/behavior regression and fails the
                job. Improvements pass with a note suggesting a
                baseline refresh.

Rows named "metrics" (the obs::MetricsRegistry snapshot written by a
bench's --metrics=out.json flag) are gated strictly: every non-timing
numeric key must match the baseline exactly — registry counters that
reach the snapshot are deterministic by construction (the benches pin
shard/thread counts), so any drift is a behavior change.

Exit status: 0 clean, 1 regression or baseline mismatch, 2 usage/IO.
"""

import argparse
import json
import re
import sys

CONTEXT_KEYS = {"batches", "edges", "ops", "period", "readers", "renames",
                "rules", "shards", "threads"}
IGNORED_KEYS = {"hardware_threads"}  # varies by runner, by design

EXACT_SUFFIXES = ("_rounds", "_rescanned", "_bytes", "_batches", "_nodes",
                  "_peak", "_reused", "_hits", "_misses", "_visited",
                  "_entries", "_matches", "_walked")


def is_timing(key):
    return (key.endswith("_s") or key.endswith("_ms") or "speedup" in key
            or re.search(r"_(us|ns)(_|$)", key) is not None)


def is_exact_counter(key):
    return key.endswith(EXACT_SUFFIXES)


def is_metrics_row(name):
    return name == "metrics" or name.startswith("metrics/")


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name")
        if name is None:
            continue
        out[name] = {k: v for k, v in bench.items() if k != "name"}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.03,
                        help="allowed relative increase for deterministic "
                             "size metrics (default 0.03)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failures = []
    improvements = []
    timing_lines = []

    for name in sorted(base):
        if name not in cur:
            failures.append(f"{name}: missing from current results")
            continue
        b, c = base[name], cur[name]
        for key in sorted(b):
            if key in IGNORED_KEYS:
                continue
            if key not in c:
                # A silently vanished metric must not pass the gate: a
                # regression hidden behind a dropped key would ship.
                failures.append(
                    f"{name}/{key}: missing from current results; update "
                    f"the committed baseline together with the bench change")
                continue
            bv, cv = b[key], c[key]
            if not isinstance(bv, (int, float)) or not isinstance(cv, (int, float)):
                continue
            if is_timing(key):
                if bv > 0 and cv != bv:
                    timing_lines.append(
                        f"  [timing] {name}/{key}: {bv:.4g} -> {cv:.4g} "
                        f"({(cv - bv) / bv:+.1%} vs baseline, advisory)")
                continue
            if key in CONTEXT_KEYS:
                if bv != cv:
                    failures.append(
                        f"{name}/{key}: workload context changed "
                        f"({bv} -> {cv}); refresh the committed baseline "
                        f"together with the bench change")
                continue
            if is_exact_counter(key) or is_metrics_row(name):
                if bv != cv:
                    failures.append(
                        f"{name}/{key}: deterministic counter changed "
                        f"({bv:g} -> {cv:g}); exact match required — if "
                        f"the behavior changed on purpose, refresh the "
                        f"committed baseline")
                continue
            # Deterministic size metric: smaller (or equal) is fine,
            # larger beyond the threshold is a regression.
            limit = bv * (1.0 + args.threshold)
            if cv > limit + 1e-9:
                failures.append(
                    f"{name}/{key}: {bv:g} -> {cv:g} "
                    f"(+{(cv - bv) / bv if bv else float('inf'):.2%}, "
                    f"threshold {args.threshold:.0%})")
            elif cv < bv:
                improvements.append(
                    f"  [better] {name}/{key}: {bv:g} -> {cv:g}")

    for extra in sorted(set(cur) - set(base)):
        print(f"note: {extra} has no baseline entry (new benchmark?)")

    if timing_lines:
        print("advisory timings (not gating):")
        for line in timing_lines:
            print(line)
    if improvements:
        print("improvements (consider refreshing the baseline):")
        for line in improvements:
            print(line)
    if failures:
        print("FAIL: deterministic bench metrics regressed:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"OK: {len(base)} benchmark rows within {args.threshold:.0%} "
          f"of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
