// The three benchmark workloads. Each builds its inputs from
// Config::seed, runs its timed phase (plus, when Config::trace is set, a
// traced replay of the same op stream), checks the program's outputs,
// and reports through RunResult.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "trace.h"
#include "util.h"

namespace perfbench {

/// Batch user: fresh Engine per job, LoadTurtle + AttachRules +
/// Materialize + Answers over reachability chains and a triangle graph.
RunResult RunBatchMaterialize(const Config& config, Tracer* tracer);

/// One in-process client querying a materialized OWL 2 QL ontology
/// under the active-domain regime; the query pool exceeds the plan cache.
RunResult RunOwlqlSparql(const Config& config, Tracer* tracer);

/// triq_server over loopback: three closed-loop SPARQL readers and an
/// open-loop ADD+MATERIALIZE writer.
RunResult RunServeRw(const Config& config, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
