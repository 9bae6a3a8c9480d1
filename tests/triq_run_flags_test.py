#!/usr/bin/env python3
"""Flag-parsing test for tools/triq_run.

A well-formed --threads runs a tiny reachability query and exits 0. A
malformed or over-bound --threads must be rejected through triq_run's
error path (exit 1) before any session is built: trailing garbage must
not be read as its numeric prefix, and a huge count must not reach the
thread pool. --prove prints the proof tree of one answer tuple, read off
the pinned materialized snapshot. A rule file that opens but cannot be
read (a directory) fails triq_run and triq_lint with exit 1 instead of
reading as an empty program.

Usage: triq_run_flags_test.py <path-to-triq_run> <path-to-triq_lint>
"""

import os
import subprocess
import sys
import tempfile


def run(triq_run, graph, program, threads, *extra):
    return subprocess.run(
        [triq_run, "--graph", graph, "--program", program,
         "--answer", "q", "--threads", threads, *extra],
        capture_output=True, text=True, timeout=30)


def main():
    triq_run, triq_lint = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "data.ttl")
        program = os.path.join(tmp, "q.rules")
        pairs = os.path.join(tmp, "pairs.rules")
        reach = ("triple(?X, edge, ?Y) -> reach(?X, ?Y) .\n"
                 "reach(?X, ?Y), triple(?Y, edge, ?Z) -> reach(?X, ?Z) .\n")
        with open(graph, "w") as f:
            f.write("a edge b .\nb edge c .\n")
        with open(program, "w") as f:
            f.write(reach + "reach(a, ?Y) -> q(?Y) .\n")
        with open(pairs, "w") as f:
            f.write(reach + "reach(?X, ?Y) -> q(?X, ?Y) .\n")

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

        proved = run(triq_run, graph, pairs, "2", "--prove", "a,c")
        expected = ("proof of q(a, c):\n"
                    "q(a, c)  [rule 2]\n"
                    "  reach(a, c)  [rule 1]\n"
                    "    reach(a, b)  [rule 0]\n"
                    "      triple(a, edge, b)  [db]\n"
                    "    triple(b, edge, c)  [db]\n")
        if proved.returncode != 0 or expected not in proved.stdout:
            sys.exit(f"--prove a,c: exit {proved.returncode}, "
                     f"stdout {proved.stdout!r}, stderr {proved.stderr!r}")

        unreadable = [
            ("triq_run --program <dir>", run(triq_run, graph, tmp, "1")),
            ("triq_lint <dir>",
             subprocess.run([triq_lint, tmp], capture_output=True,
                            text=True, timeout=30)),
        ]
        for name, result in unreadable:
            if result.returncode != 1 or "cannot read" not in result.stderr:
                sys.exit(f"{name}: exit {result.returncode}, "
                         f"stdout {result.stdout!r}, "
                         f"stderr {result.stderr!r}")
    print("triq_run flag test passed")


if __name__ == "__main__":
    main()
