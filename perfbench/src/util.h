// Shared plumbing for the perfbench workloads: run configuration, seed
// streams, latency statistics and the result line every workload prints.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// How one workload process runs. `tiny` shrinks every input so the
/// benchmark's own tests finish in seconds; it is not a benchmark mode.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;   // span file written by traced runs
  std::string server;      // triq_server binary (serve_rw)
  std::string work_dir;    // scratch directory for a journal (serve_rw,
                           // owlql_sparql traced)
  Clock::time_point process_start;
};

/// Independent, reproducible random stream `stream` of run seed `seed`
/// (SplitMix64 finalizer), so adding a stream never shifts another.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// FNV-1a digest of `text`, chained through `hash`: the run prints one
/// over its generated inputs so tests can pin what a seed generates.
uint64_t Digest(const std::string& text, uint64_t hash = 0xcbf29ce484222325ULL);
void PrintInputDigest(const Config& config, uint64_t digest);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the outcome counts, the metrics
/// of the untimed-tracing run, and (traced runs) those of the traced
/// replay of the same op stream.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> traced_metrics;
  std::vector<std::string> problems;  // why `correct` is false

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// The end-to-end metrics of one timed phase, from its latencies.
struct PhaseTimes {
  double setup_s = 0;
  double elapsed_s = 0;
  std::vector<double> op_ms;
};
void AddEndToEnd(const PhaseTimes& phase, double peak_rss_mb,
                 std::vector<Metric>* out);

/// One JSON line: {"correct", "attempted", "failed", "metrics"
/// [, "traced_metrics", "trace_file"]}.
std::string ResultJson(const RunResult& result, const std::string& trace_file);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
