#!/usr/bin/env python3
"""Gate a bench run against a committed baseline JSON.

Compares the median of one (or more) benchmarks in a freshly produced
BENCH_<suite>.json against the baseline committed under bench/results/
and fails when the median regressed by more than the allowed fraction.
Each --name may carry its own threshold as NAME:MAXREG (a fraction, e.g.
chase/clique_k3_complete/7:0.75 for noisy sub-5ms workloads measured in
--quick mode); names without one use --max-regression.

Independently of the gated names, the deterministic workload counters
(facts_derived, answers, ...) of EVERY benchmark present in both files
must match exactly — a machine-independent result-correctness gate. A
deterministic counter one side emits and the other does not fails the
gate too, so a benchmark cannot pass by dropping a counter. Counters
whose names end in a measurement suffix (_qps, _ns, _us) are recorded
observations (throughput, latency percentiles), not workload
invariants, and are excluded from the exactness check.

CI (Release job) runs:

  python3 tools/check_bench_regression.py \
      --baseline bench/results/BENCH_chase.json \
      --current  bench-json/BENCH_chase.json \
      --name     chase/tc_chain/256 \
      --name     chase/clique_k3_complete/7:0.75 \
      --max-regression 0.25
"""

import argparse
import json
import sys


def load_benchmarks(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return {b["name"]: b for b in doc.get("benchmarks", [])}


# Counter-name suffixes marking nondeterministic measurements (latency
# percentiles, throughput) rather than exact workload invariants.
MEASUREMENT_SUFFIXES = ("_qps", "_ns", "_us")


def check_counters(name, baseline, current):
    """Returns True when any deterministic counter diverges or is
    missing from one side."""
    failed = False
    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for key in sorted(set(base_counters) | set(cur_counters)):
        if key.endswith(MEASUREMENT_SUFFIXES):
            continue
        if key not in cur_counters:
            print(f"FAIL {name}: counter {key} missing from current run")
        elif key not in base_counters:
            print(f"FAIL {name}: counter {key} missing from baseline")
        elif base_counters[key] != cur_counters[key]:
            print(f"FAIL {name}: counter {key} changed "
                  f"{base_counters[key]} -> {cur_counters[key]}")
        else:
            continue
        failed = True
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_<suite>.json")
    parser.add_argument("--current", required=True,
                        help="freshly produced BENCH_<suite>.json")
    parser.add_argument("--name", action="append", required=True,
                        help="benchmark to gate, NAME or NAME:MAXREG "
                             "(repeatable)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="default allowed fractional slowdown "
                             "(0.25 = +25%%)")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)

    failed = False
    gated = []
    for spec in args.name:
        name, sep, threshold = spec.rpartition(":")
        if sep and name:
            try:
                gated.append((name, float(threshold)))
                continue
            except ValueError:
                pass  # ':' belonged to the benchmark name itself
        gated.append((spec, args.max_regression))

    for name, max_regression in gated:
        if name not in baseline:
            print(f"FAIL {name}: missing from baseline {args.baseline}")
            failed = True
            continue
        if name not in current:
            print(f"FAIL {name}: missing from current run {args.current}")
            failed = True
            continue
        base_ns = float(baseline[name]["median_ns"])
        cur_ns = float(current[name]["median_ns"])
        ratio = cur_ns / base_ns
        limit = 1.0 + max_regression
        verdict = "FAIL" if ratio > limit else "ok"
        print(f"{verdict:4} {name}: baseline {base_ns / 1e6:.3f} ms, "
              f"current {cur_ns / 1e6:.3f} ms, ratio {ratio:.3f} "
              f"(limit {limit:.3f})")
        failed = failed or ratio > limit

    # Counter exactness for every benchmark both runs know about, gated
    # or not (workload sizes differ between --quick and full runs, so
    # only the intersection is comparable).
    for name in sorted(set(baseline) & set(current)):
        failed = check_counters(name, baseline[name], current[name]) or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
