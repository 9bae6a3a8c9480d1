#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Builds perfbench/ (the triq libraries, triq_server and the perfbench
binary) from the checkout's sources into .bench_build/, runs the workload
in its own process, and prints one JSON object: correct, attempted,
failed and metrics -- the end-to-end metrics, or with --trace 1 the
per-layer metrics and tracing overhead from perfbench/summarize.py.
Exit status: 0 when every output checked out, 1 when one did not, 2 when
the benchmark could not run (no result line then). See perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import summarize  # noqa: E402

WORKLOADS = ("batch_materialize", "owlql_sparql", "serve_rw")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(out):
    """Configures (once) and builds the benchmark package; build output
    goes to stderr. Returns False when the build fails."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, cwd=ROOT,
                           env=env) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
         "triq_server"], stdout=sys.stderr, cwd=ROOT, env=env) == 0


def run_workload(cmd):
    """Runs the workload in its own process group, so a timeout also
    takes down the server it may have started. Returns (exit, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: workload timed out after %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return None, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray children, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the benchmark's tests")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "perfbench"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--work-dir", os.path.join(out, "work", "%s-%d" % (
        args.workload, os.getpid()))]
    if args.workload == "serve_rw":
        cmd += ["--server", os.path.join(out, "triq_tools", "triq_server")]
    trace_file = None
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = os.path.join(traces, "%s-%d-%d.tsv" % (
            args.workload, args.seed, int(time.time())))
        cmd += ["--trace-out", trace_file]

    code, stdout = run_workload(cmd)
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    if code not in (0, 1) or not lines:
        print("run.py: workload exited with %s and no result" % code,
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace:
        metrics, problems = summarize.summarize(
            trace_file, args.workload, result["metrics"],
            result["traced_metrics"])
        for problem in problems:
            print("run.py: trace: " + problem, file=sys.stderr)
        if problems:
            result["correct"] = False
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
