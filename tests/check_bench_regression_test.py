#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py, the Release CI bench gate.

Runs the script on fixture BENCH_*.json files written to a temporary
directory and checks its exit code: equal counters pass, a changed or a
dropped deterministic counter fails, measurement counters (_qps, _ns,
_us) are ignored, and a NAME:MAXREG threshold overrides
--max-regression.

Usage: check_bench_regression_test.py <path-to-check_bench_regression.py>
"""

import json
import os
import subprocess
import sys
import tempfile

NAME = "chase/tc_chain/256"


def bench(median_ns, counters):
    return {"benchmarks": [{"name": NAME, "median_ns": median_ns,
                            "counters": counters}]}


def gate(script, tmp, baseline, current, *names):
    paths = []
    for label, doc in (("baseline", baseline), ("current", current)):
        path = os.path.join(tmp, f"{label}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        paths.append(path)
    run = subprocess.run(
        [sys.executable, script, "--baseline", paths[0], "--current",
         paths[1], *[arg for name in names for arg in ("--name", name)]],
        capture_output=True, text=True)
    return run.returncode, run.stdout


def expect_exit(want, result, message):
    code, output = result
    if code != want:
        raise AssertionError(f"{message}: exit {code}, want {want}\n{output}")


def main():
    script = sys.argv[1]
    counters = {"facts_derived": 32896, "rounds": 9, "read_p50_us": 3.5,
                "read_qps": 900.0, "commit_ns": 120}
    with tempfile.TemporaryDirectory() as tmp:
        expect_exit(0, gate(script, tmp, bench(100.0, counters),
                            bench(110.0, counters), NAME),
                    "equal counters")

        changed = dict(counters, facts_derived=32895)
        expect_exit(1, gate(script, tmp, bench(100.0, counters),
                            bench(100.0, changed), NAME),
                    "changed counter")

        dropped = {k: v for k, v in counters.items() if k != "rounds"}
        expect_exit(1, gate(script, tmp, bench(100.0, counters),
                            bench(100.0, dropped), NAME),
                    "counter dropped from the current run")
        expect_exit(1, gate(script, tmp, bench(100.0, dropped),
                            bench(100.0, counters), NAME),
                    "counter missing from the baseline")

        measured = {"facts_derived": 32896, "rounds": 9, "read_p50_us": 9.0}
        expect_exit(0, gate(script, tmp, bench(100.0, counters),
                            bench(100.0, measured), NAME),
                    "measurement counters changed or dropped")

        slow = bench(150.0, counters)
        expect_exit(1, gate(script, tmp, bench(100.0, counters), slow, NAME),
                    "1.5x slower under the default 0.25 bound")
        expect_exit(0, gate(script, tmp, bench(100.0, counters), slow,
                            NAME + ":0.75"),
                    "1.5x slower under NAME:0.75")
        expect_exit(1, gate(script, tmp, bench(100.0, counters), slow,
                            NAME + ":0.4"),
                    "1.5x slower under NAME:0.4")
    print("check_bench_regression test passed")


if __name__ == "__main__":
    main()
