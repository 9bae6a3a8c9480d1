// perfbench: runs one benchmark workload and prints its result as one
// JSON line (the last line of stdout). perfbench/run.py builds this
// binary and wraps it; see perfbench/NOTES.md.
//
//   perfbench <batch_materialize|owlql_sparql|serve_rw> --seed N
//             --seconds S [--trace-out FILE] [--tiny] [--server PATH]
//             [--work-dir DIR]
//
// --trace-out turns on the traced mode: the span file goes to FILE.
// --tiny shrinks every input for the benchmark's tests; owlql_sparql
// then also checks its whole query pool against the reference.
// --work-dir is where a journal goes: serve_rw's server, and the write
// path owlql_sparql's traced mode replays.
// Exit status: 0 when every output checked out, 1 when one did not,
// 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench <batch_materialize|owlql_sparql|serve_rw> "
               "--seed N --seconds S [--trace-out FILE] [--tiny] "
               "[--server PATH] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  config.process_start = perfbench::Clock::now();
  if (argc < 2) return Usage();
  config.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      if (!(config.seconds > 0)) return Usage();
    } else if (arg == "--trace-out") {
      config.trace = true;
      config.trace_out = value;
    } else if (arg == "--server") {
      config.server = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }

  perfbench::Tracer tracer(config.process_start);
  perfbench::Tracer* spans = config.trace ? &tracer : nullptr;
  perfbench::RunResult result;
  if (config.workload == "batch_materialize") {
    result = perfbench::RunBatchMaterialize(config, spans);
  } else if (config.workload == "owlql_sparql") {
    if (config.trace && config.work_dir.empty()) return Usage();
    result = perfbench::RunOwlqlSparql(config, spans);
  } else if (config.workload == "serve_rw") {
    if (config.server.empty() || config.work_dir.empty()) return Usage();
    result = perfbench::RunServeRw(config, spans);
  } else {
    return Usage();
  }

  if (config.trace) {
    tracer.Count("trace.span_mb", static_cast<double>(tracer.Bytes()) / 1e6);
    if (!tracer.WriteTo(config.trace_out)) {
      result.Fail("cannot write " + config.trace_out);
    }
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(),
                 problem.c_str());
  }
  std::printf("%s\n",
              perfbench::ResultJson(result, config.trace_out).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
