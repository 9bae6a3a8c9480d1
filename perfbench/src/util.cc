#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Digest(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void PrintInputDigest(const Config& config, uint64_t digest) {
  std::fprintf(stderr, "%s: seed %llu inputs digest %016llx\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               static_cast<unsigned long long>(digest));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddEndToEnd(const PhaseTimes& phase, double peak_rss_mb,
                 std::vector<Metric>* out) {
  const double ops = static_cast<double>(phase.op_ms.size());
  out->push_back({"setup_s", phase.setup_s, "s"});
  out->push_back({"ops_per_s", phase.elapsed_s > 0 ? ops / phase.elapsed_s : 0,
                  "1/s"});
  out->push_back({"op_p50_ms", Quantile(phase.op_ms, 0.5), "ms"});
  out->push_back({"op_p90_ms", Quantile(phase.op_ms, 0.9), "ms"});
  out->push_back({"peak_rss_mb", peak_rss_mb, "MB"});
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string ResultJson(const RunResult& result,
                       const std::string& trace_file) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": " + MetricsJson(result.metrics);
  if (!trace_file.empty()) {
    out += ", \"traced_metrics\": " + MetricsJson(result.traced_metrics);
    out += ", \"trace_file\": " + JsonString(trace_file);
  }
  return out + "}";
}

}  // namespace perfbench
