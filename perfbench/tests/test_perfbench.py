"""The benchmark's own tests, at the shrunken --tiny sizes.

    python3 -m unittest discover -s perfbench/tests -v

They build perfbench/ into .bench_build/ (through run.py) the first time.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402
import summarize  # noqa: E402

IN_PROCESS = ("batch_materialize", "owlql_sparql")


def run_py(workload, seed, trace, seconds=1):
    """run.py --tiny; returns (exit code, result dict or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def run_binary(workload, seed, *extra):
    """The perfbench binary itself (built by an earlier run_py)."""
    binary = os.path.join(run.build_dir(), "perfbench")
    proc = subprocess.run(
        [binary, workload, "--seed", str(seed), "--seconds", "1", "--tiny"] +
        list(extra), capture_output=True, text=True, cwd=ROOT, timeout=300)
    return proc


def scratch_dir():
    """A temporary directory inside the build tree, so the tests write
    nothing outside the checkout."""
    parent = os.path.join(run.build_dir(), "tmp")
    os.makedirs(parent, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=parent)


def input_digest(stderr):
    match = re.search(r"inputs digest ([0-9a-f]+)", stderr)
    return match.group(1) if match else None


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = [w["name"] for w in spec["workloads"]]
        self.assertTrue(set(listed) <= set(run.WORKLOADS))
        code, plain, _ = run_py(listed[0], 1, 0)
        self.assertEqual(code, 0)
        self.assertEqual(sorted(plain["metrics"]),
                         sorted(m["name"] for m in spec["end_to_end"]))
        code, traced, _ = run_py(listed[0], 1, 1)
        self.assertEqual(code, 0)
        self.assertEqual(sorted(traced["metrics"]),
                         sorted(m["name"] for m in spec["per_layer"]))


class SeedTest(unittest.TestCase):
    # Counters that must repeat exactly for one seed.
    EXACT = {
        "batch_materialize": ["rdf.triples", "common.dict_symbols",
                              "chase.rounds", "chase.rule_firings",
                              "chase.facts_derived", "chase.sharded_passes"],
        "owlql_sparql": ["common.dict_symbols", "engine.cache_hit_ratio",
                         "engine.cache_evictions", "chase.overlay_facts",
                         "translate.rows", "journal.records",
                         "journal.bytes", "journal.checkpoints"],
    }

    def test_one_seed_gives_identical_inputs_and_counters(self):
        for workload, names in self.EXACT.items():
            first = run_py(workload, 7, 1)
            second = run_py(workload, 7, 1)
            for code, result, _ in (first, second):
                self.assertEqual(code, 0, workload)
                self.assertTrue(result["correct"], workload)
            self.assertIsNotNone(input_digest(first[2]), workload)
            self.assertEqual(input_digest(first[2]), input_digest(second[2]),
                             workload)
            for name in names:
                self.assertEqual(first[1]["metrics"][name]["value"],
                                 second[1]["metrics"][name]["value"],
                                 workload + " " + name)

    def test_a_second_seed_runs_clean_on_other_inputs(self):
        for workload in IN_PROCESS:
            code, result, stderr = run_py(workload, 8, 0)
            self.assertEqual(code, 0, stderr)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            _, _, other = run_py(workload, 7, 0)
            self.assertNotEqual(input_digest(stderr), input_digest(other))


class OwlqlPoolTest(unittest.TestCase):
    def test_full_pool_matches_evaluate_translated(self):
        run_py("owlql_sparql", 3, 0)  # builds the binary
        for seed in (3, 4):
            # At the --tiny size the run checks its whole pool.
            proc = run_binary("owlql_sparql", seed)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("pool check: all", proc.stderr)


class TraceTest(unittest.TestCase):
    def test_replays_match_and_children_stay_inside_parents(self):
        run_py("batch_materialize", 5, 0)  # builds the binary
        for workload in IN_PROCESS:
            with scratch_dir() as tmp:
                path = os.path.join(tmp, "spans.tsv")
                work = os.path.join(tmp, "work")
                proc = run_binary(workload, 5, "--trace-out", path,
                                  "--work-dir", work)
                # The binary fails the run when a replay's answers differ
                # from the Engine's.
                self.assertEqual(proc.returncode, 0, proc.stderr)
                # The write path's journal is gone with its directory.
                self.assertFalse(os.path.exists(work), workload)
                trace = summarize.Trace(path)
                self.assertEqual(summarize.check_nesting(trace), [])
                replays = [s for s in trace.spans.values()
                           if s[2].startswith("replay.")]
                self.assertTrue(replays, workload)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                metrics, problems = summarize.summarize(
                    path, workload, result["metrics"],
                    result["traced_metrics"])
                self.assertEqual(problems, [])
                self.assertIn("trace.overhead.op_p50_ms", metrics)

    def test_self_time_and_nesting_check(self):
        with scratch_dir() as tmp:
            path = os.path.join(tmp, "spans.tsv")
            with open(path, "w") as f:
                f.write("S\t0\t-\t1\treplay.job\t0\t100\n"
                        "S\t1\t0\t1\tchase.RunChase\t10\t60\n"
                        "S\t2\t0\t1\tchase.FreezeAllIndexes\t60\t90\n"
                        "S\t3\t-\t2\treplay.job\t200\t250\n"
                        "S\t4\t3\t2\tchase.RunChase\t190\t260\n"
                        "C\t1\tchase.facts_derived\t5\n")
            trace = summarize.Trace(path)
            self.assertEqual(trace.self_time(0), 20)
            problems = summarize.check_nesting(trace)
            self.assertEqual(len(problems), 2)  # span 4 outside, longer
            metrics = summarize.layer_metrics(trace)
            self.assertEqual(metrics["chase.facts_derived"][0], 5)


class ServeRwTest(unittest.TestCase):
    def test_ends_and_reports_the_outcome_without_hanging(self):
        code, result, stderr = run_py("serve_rw", 2, 0, seconds=2)
        self.assertIn(code, (0, 1), stderr)
        self.assertIn("serve_rw: triq_server", stderr)
        if result["correct"]:
            self.assertEqual(result["failed"], 0)
        else:
            # At the time of writing triq_server can die mid-run (see
            # NOTES.md); the run must end, count the lost ops and name
            # the server's exit.
            self.assertRegex(stderr, r"triq_server (killed by signal|exited)")
        self.assertIn("write_p50_ms", result["metrics"])
        work = os.path.join(run.build_dir(), "work")
        leftovers = [f for _, _, files in os.walk(work) for f in files]
        self.assertEqual(leftovers, [])


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_a_result_outside_a_checkout(self):
        with scratch_dir() as tmp:
            subprocess.run(["cp", "-r", PERFBENCH, tmp], check=True)
            subprocess.run(["cp", os.path.join(ROOT, "BENCHMARK.json"), tmp],
                           check=True)
            subprocess.run(["rm", "-rf", os.path.join(tmp, "perfbench",
                                                      "__pycache__")])
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "owlql_sparql", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], capture_output=True, text=True, cwd=tmp, timeout=170,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
