#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

uint32_t Tracer::Begin(const char* name, uint64_t op) {
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  const uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({parent, op, name, Now(), -1});
  open_.push_back(id);
  return id;
}

void Tracer::End(uint32_t id) {
  spans_[id].end_ns = Now();
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything opened after `id`.
  while (!open_.empty()) {
    const uint32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::Count(const char* name, double value, uint64_t op) {
  counters_.push_back({op, name, value});
}

void Tracer::Absorb(const Tracer& other) {
  const uint32_t offset = static_cast<uint32_t>(spans_.size());
  for (SpanRecord span : other.spans_) {
    if (span.parent != kNoParent) span.parent += offset;
    spans_.push_back(span);
  }
  counters_.insert(counters_.end(), other.counters_.begin(),
                   other.counters_.end());
}

size_t Tracer::Bytes() const {
  return spans_.capacity() * sizeof(SpanRecord) +
         counters_.capacity() * sizeof(CounterRecord);
}

bool Tracer::WriteTo(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  auto op_text = [](uint64_t op, char* buf, size_t size) {
    if (op == kNoOp) {
      std::snprintf(buf, size, "-");
    } else {
      std::snprintf(buf, size, "%" PRIu64, op);
    }
  };
  char op_buf[32];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    op_text(s.op, op_buf, sizeof(op_buf));
    char parent[16];
    if (s.parent == kNoParent) {
      std::snprintf(parent, sizeof(parent), "-");
    } else {
      std::snprintf(parent, sizeof(parent), "%u", s.parent);
    }
    std::fprintf(out, "S\t%zu\t%s\t%s\t%s\t%" PRId64 "\t%" PRId64 "\n", i,
                 parent, op_buf, s.name, s.start_ns, s.end_ns);
  }
  for (const CounterRecord& c : counters_) {
    op_text(c.op, op_buf, sizeof(op_buf));
    std::fprintf(out, "C\t%s\t%s\t%.17g\n", op_buf, c.name, c.value);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
