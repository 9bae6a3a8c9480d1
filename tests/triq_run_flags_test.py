#!/usr/bin/env python3
"""Flag-parsing test for tools/triq_run.

A well-formed --threads runs a tiny reachability query and exits 0. A
malformed or over-bound --threads must be rejected through triq_run's
error path (exit 1) before any session is built: trailing garbage must
not be read as its numeric prefix, and a huge count must not reach the
thread pool.

Usage: triq_run_flags_test.py <path-to-triq_run>
"""

import os
import subprocess
import sys
import tempfile


def run(triq_run, graph, program, threads):
    return subprocess.run(
        [triq_run, "--graph", graph, "--program", program,
         "--answer", "q", "--threads", threads],
        capture_output=True, text=True, timeout=30)


def main():
    triq_run = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "data.ttl")
        program = os.path.join(tmp, "q.rules")
        with open(graph, "w") as f:
            f.write("a edge b .\nb edge c .\n")
        with open(program, "w") as f:
            f.write("triple(?X, edge, ?Y) -> reach(?X, ?Y) .\n"
                    "reach(?X, ?Y), triple(?Y, edge, ?Z) -> reach(?X, ?Z) .\n"
                    "reach(a, ?Y) -> q(?Y) .\n")

        good = run(triq_run, graph, program, "2")
        if good.returncode != 0 or good.stdout.split() != ["b", "c"]:
            sys.exit(f"--threads 2: exit {good.returncode}, "
                     f"stdout {good.stdout!r}, stderr {good.stderr!r}")
        for bad in ("2x", "1000000000"):
            result = run(triq_run, graph, program, bad)
            if result.returncode != 1:
                sys.exit(f"--threads {bad}: exit {result.returncode}, "
                         f"stderr {result.stderr!r}")
            if "--threads" not in result.stderr:
                sys.exit(f"--threads {bad}: no reason given, "
                         f"stderr {result.stderr!r}")
    print("triq_run flag test passed")


if __name__ == "__main__":
    main()
