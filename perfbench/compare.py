#!/usr/bin/env python3
"""Compares two sets of perfbench result files.

Usage:

    python3 perfbench/compare.py --base OLD.json [OLD2.json ...] \\
                                 --new NEW.json [NEW2.json ...]

Result files are the ones perfbench/run.py writes to .bench_build/results/.
Every file must carry the same configuration (workload, scale, sessions,
shards, cache budget share, nproc, build type, run length, trace mode);
only the seed, the commit and the source digest, and what follows from the
seed, may differ. Files whose configurations differ are refused with exit
status 2. For each metric the script prints each side's median and
quartile spread and the change of the medians, and flags end-to-end
metrics whose median got worse by more than their bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys

# Configuration keys that may differ between comparable runs: the seed and
# the code version, and what the seed decides about the generated data.
VARYING = {"seed", "commit", "source_digest", "records", "cache_budget_bytes"}


def identity(config):
    return {k: v for k, v in config.items() if k not in VARYING}


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append((path, json.load(f)))
    return runs


def spread(values):
    """Quartile distance as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else float("inf")


def bounds():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    base, new = load(args.base), load(args.new)
    reference_path, reference = base[0]
    want = identity(reference["config"])
    refused = False
    for path, run in base + new:
        got = identity(run["config"])
        diff = sorted(k for k in set(want) | set(got)
                      if want.get(k) != got.get(k))
        if diff:
            refused = True
            print("refused: %s differs from %s in %s" % (
                path, reference_path,
                ", ".join("%s (%r vs %r)" % (k, got.get(k), want.get(k))
                          for k in diff)))
    if refused:
        return 2

    limits = bounds()
    print("workload %s, %d base run(s), %d new run(s)" % (
        want.get("workload"), len(base), len(new)))
    print("%-34s %14s %7s %14s %7s %9s" % (
        "metric", "base median", "spread", "new median", "spread", "change"))
    for name in reference["metrics"]:
        unit = reference["metrics"][name]["unit"]
        b = [r["metrics"][name]["value"] for _, r in base
             if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for _, r in new
             if name in r["metrics"]]
        if not b or not n:
            continue
        bm, nm = statistics.median(b), statistics.median(n)
        change = (nm - bm) / bm if bm else 0.0
        flag = ""
        if name in limits:
            better, bound = limits[name]
            worse = -change if better == "higher" else change
            if worse > bound:
                flag = "  WORSE than bound %.0f%%" % (100 * bound)
        print("%-34s %14.4f %6.1f%% %14.4f %6.1f%% %+8.1f%% %s%s" % (
            name, bm, 100 * spread(b), nm, 100 * spread(n), 100 * change,
            unit, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
