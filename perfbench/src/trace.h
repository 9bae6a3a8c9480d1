// In-memory span recorder for traced runs. Spans are recorded by the
// benchmark around its own calls into each module's public functions
// (nothing inside src/ is instrumented) and written out once, when the
// run ends, for perfbench/summarize.py.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

/// One thread's spans and counters. Spans nest: a span opened while
/// another is open becomes its child. Not thread-safe — each client
/// thread records into its own Tracer, merged with Absorb at the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span; returns its id.
  uint32_t Begin(const char* name, uint64_t op);
  void End(uint32_t id);

  /// Records counter `name` = `value` for op `op` (kNoOp: run-wide).
  void Count(const char* name, double value, uint64_t op = kNoOp);

  /// Appends `other`'s records, renumbering its span ids.
  void Absorb(const Tracer& other);

  /// Bytes the recorded spans and counters occupy (tracing's own memory).
  size_t Bytes() const;

  /// Writes every record as tab-separated lines:
  ///   S <id> <parent|-> <op|-> <name> <start_ns> <end_ns>
  ///   C <op|-> <name> <value>
  bool WriteTo(const std::string& path) const;

  static constexpr uint64_t kNoOp = ~uint64_t{0};

 private:
  static constexpr uint32_t kNoParent = ~uint32_t{0};
  struct SpanRecord {
    uint32_t parent;
    uint64_t op;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct CounterRecord {
    uint64_t op;
    const char* name;
    double value;
  };

  int64_t Now() const;

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : 0) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End() {
    if (tracer_ != nullptr) tracer_->End(id_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
