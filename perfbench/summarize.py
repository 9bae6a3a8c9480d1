#!/usr/bin/env python3
"""Traced-mode summarizer: per-layer metrics from a perfbench span file.

A traced run writes one span file (see perfbench/src/trace.h):

    S <id> <parent|-> <op|-> <name> <start_ns> <end_ns>
    C <op|-> <name> <value>

Spans named ``op.*`` are the timed ops and their children the Engine or
server calls; spans named ``replay.*`` replay one distinct op through the
public entry points of the layers below, each as a child span. A span's
self time is its duration minus its children's.

Usage: python3 perfbench/summarize.py <span file>   (prints the metrics)
"""

import statistics
import sys
from collections import defaultdict

END_TO_END = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms",
              "peak_rss_mb"]


class Trace:
    def __init__(self, path):
        self.spans = {}
        self.children = defaultdict(list)
        self.counters = []
        with open(path) as f:
            for line in f:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "S":
                    sid = int(fields[1])
                    parent = None if fields[2] == "-" else int(fields[2])
                    op = None if fields[3] == "-" else int(fields[3])
                    self.spans[sid] = (parent, op, fields[4], int(fields[5]),
                                       int(fields[6]))
                    if parent is not None:
                        self.children[parent].append(sid)
                elif fields[0] == "C":
                    op = None if fields[1] == "-" else int(fields[1])
                    self.counters.append((op, fields[2], float(fields[3])))

    def duration(self, sid):
        _, _, _, start, end = self.spans[sid]
        return end - start

    def self_time(self, sid):
        return self.duration(sid) - sum(
            self.duration(c) for c in self.children[sid])

    def root(self, sid):
        while self.spans[sid][0] is not None:
            sid = self.spans[sid][0]
        return self.spans[sid][2]

    def ids(self, name, root=None):
        return [sid for sid, span in self.spans.items()
                if span[2] == name and (root is None or self.root(sid) == root)]

    def durations_ns(self, name, root=None):
        return [self.duration(sid) for sid in self.ids(name, root)]

    def counter_values(self, name):
        return [value for _, n, value in self.counters if n == name]

    def counter_by_op(self, name):
        return {op: value for op, n, value in self.counters if n == name}


def median(values):
    return statistics.median(values) if values else 0.0


def check_nesting(trace):
    """Problems with the span tree: a span that never closed, or children
    whose combined duration exceeds their parent's."""
    problems = []
    for sid, (parent, _, name, start, end) in trace.spans.items():
        if end < start:
            problems.append("span %d (%s) never closed" % (sid, name))
        kids = trace.children[sid]
        if kids and trace.self_time(sid) < 0:
            problems.append("children of span %d (%s) exceed it" % (sid, name))
        for kid in kids:
            _, _, _, kstart, kend = trace.spans[kid]
            if kstart < start or kend > end:
                problems.append("span %d lies outside its parent %d" %
                                (kid, sid))
    return problems


def layer_metrics(trace):
    """Every per-layer metric, as name -> (value, unit); 0 where the
    workload never enters the layer."""
    t = trace
    ms = lambda values: median(values) / 1e6
    us = lambda values: median(values) / 1e3
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def counter(name):
        return median(t.counter_values(name))

    # Parsing and loading (batch_materialize replay).
    put("rdf.parse_ms", ms(t.durations_ns("rdf.ParseTurtle")), "ms")
    put("rdf.triples", counter("rdf.triples"), "count")
    put("common.dict_symbols", counter("common.dict_symbols"), "count")
    put("datalog.parse_us", us(t.durations_ns("datalog.ParseProgram")), "us")
    put("analysis.termination_us",
        us(t.durations_ns("analysis.AnalyzeTermination")), "us")

    # The data chase (batch_materialize replay).
    run_ns = t.durations_ns("chase.RunChase")
    facts = counter("chase.facts_derived")
    firings = counter("chase.rule_firings")
    put("chase.run_ms", ms(run_ns), "ms")
    put("chase.facts_per_s", facts / (median(run_ns) / 1e9) if run_ns else 0,
        "1/s")
    put("chase.rounds", counter("chase.rounds"), "count")
    put("chase.rule_firings", firings, "count")
    put("chase.facts_derived", facts, "count")
    put("chase.sharded_passes", counter("chase.sharded_passes"), "count")
    put("chase.new_fact_ratio", facts / firings if firings else 0, "ratio")
    triangle_ns = t.durations_ns("chase.RunChase.triangle_only")
    put("chase.triangle_share",
        median(triangle_ns) / median(run_ns) if run_ns and triangle_ns else 0,
        "ratio")
    put("chase.freeze_ms", ms(t.durations_ns("chase.FreezeAllIndexes")), "ms")
    put("chase.clone_ms", ms(t.durations_ns("chase.CloneFacts")), "ms")
    put("chase.resume_ms", ms(t.durations_ns("chase.ResumeChase")), "ms")

    # The query compile and overlay layers (replay of each distinct text).
    put("chase.overlay_ms", ms(t.durations_ns("chase.Overlay")), "ms")
    put("chase.overlay_facts", counter("chase.overlay_facts"), "count")
    put("sparql.parse_us", us(t.durations_ns("sparql.ParsePattern")), "us")
    put("translate.translate_us",
        us(t.durations_ns("translate.TranslatePattern")), "us")
    put("translate.decode_us",
        us(t.durations_ns("translate.AnswersToMappings")), "us")
    put("translate.rows", counter("translate.rows"), "count")
    put("core.prepare_us", us(t.durations_ns("core.Prepare")), "us")

    # Engine calls: those of batch jobs, and the writes replayed in
    # process (serve_rw's, and owlql_sparql's write path).
    put("engine.load_ms", ms(t.durations_ns("engine.LoadTurtle", "op.job")),
        "ms")
    put("engine.answers_ms", ms(t.durations_ns("engine.Answers", "op.job")),
        "ms")
    materialize = [d for root in ("op.job", "replay.write")
                   for d in t.durations_ns("engine.Materialize", root)]
    put("engine.materialize_ms", ms(materialize), "ms")
    # Self time: Materialize minus the clone, chase and freeze its replay
    # measured (the layers run inside the call, but src/ records no spans).
    replayed = []
    for replay in t.ids("replay.job") + t.ids("replay.write"):
        replayed.append(sum(
            t.duration(c) for c in t.children[replay]
            if t.spans[c][2] in ("chase.CloneFacts", "chase.RunChase",
                                 "chase.ResumeChase",
                                 "chase.FreezeAllIndexes")))
    put("engine.materialize_self_ms",
        ms(materialize) - ms(replayed) if materialize and replayed else 0,
        "ms")
    hit = t.counter_by_op("engine.hit")
    queries = t.ids("engine.Query", "op.query")
    hits = [t.duration(s) for s in queries if hit.get(t.spans[s][1]) == 1]
    misses = [t.duration(s) for s in queries if hit.get(t.spans[s][1]) == 0]
    put("engine.query_hit_us", us(hits), "us")
    put("engine.query_miss_ms", ms(misses), "ms")
    copies = [t.duration(s) for s in t.ids("engine.result_copy", "op.query")
              if hit.get(t.spans[s][1]) == 1]
    put("engine.result_copy_us", us(copies), "us")
    hits_n = sum(t.counter_values("engine.cache_hits"))
    misses_n = sum(t.counter_values("engine.cache_misses"))
    put("engine.cache_hit_ratio",
        hits_n / (hits_n + misses_n) if hits_n + misses_n else 0, "ratio")
    put("engine.cache_evictions", sum(t.counter_values("engine.cache_evictions")),
        "count")

    # The journal (serve_rw's server; owlql_sparql's write-path replay),
    # then serve_rw only: the wire and the load generator.
    put("journal.records", counter("journal.records"), "count")
    put("journal.bytes", counter("journal.bytes"), "bytes")
    put("journal.checkpoints", counter("journal.checkpoints"), "count")
    put("journal.checkpoint_image_ms",
        ms(t.durations_ns("chase.SaveFactsToString")), "ms")
    put("journal.bytes_per_user_byte", counter("journal.bytes_per_user_byte"),
        "ratio")
    put("server.ping_us", us(t.durations_ns("server.PING")), "us")
    put("server.wire_ms", counter("server.wire_ms"), "ms")
    put("server.reply_bytes", counter("server.reply_bytes"), "bytes")
    put("loadgen.write_late_ms", counter("loadgen.write_late_ms"), "ms")
    put("trace.span_mb", counter("trace.span_mb"), "MB")
    return out


# Metrics only serve_rw can produce; the in-process workloads omit them.
SERVE_ONLY = {
    "server.ping_us", "server.wire_ms", "server.reply_bytes",
    "loadgen.write_late_ms",
}


def summarize(path, workload, untraced, traced):
    """Per-layer metrics plus tracing overhead, as the result line's
    metrics dict; and the list of span-tree problems found."""
    trace = Trace(path)
    metrics = {}
    for name, (value, unit) in layer_metrics(trace).items():
        if workload != "serve_rw" and name in SERVE_ONLY:
            continue
        metrics[name] = {"value": value, "unit": unit}
    for name in END_TO_END:
        if name in untraced and name in traced:
            metrics["trace.overhead." + name] = {
                "value": traced[name]["value"] - untraced[name]["value"],
                "unit": untraced[name]["unit"]}
    return metrics, check_nesting(trace)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trace = Trace(argv[1])
    for name, (value, unit) in layer_metrics(trace).items():
        print("%-32s %14.4f %s" % (name, value, unit))
    problems = check_nesting(trace)
    for problem in problems:
        print("problem:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
