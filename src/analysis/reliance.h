#ifndef TRIQ_ANALYSIS_RELIANCE_H_
#define TRIQ_ANALYSIS_RELIANCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/graph.h"
#include "datalog/program.h"

namespace triq::analysis {

/// The rule reliance graph (VLog's reliances, at predicate granularity):
/// rule a *positively relies on* rule b when some head predicate of b
/// occurs in a's positive body — firing b can enable new matches of a —
/// and *negatively relies* when the occurrence is negated — firing b can
/// retract a's conclusions, which is what stratification must separate.
///
/// Predicate-level reliance is a sound over-approximation of the
/// unification-based test (every unification-reliant pair shares a
/// predicate); it may order two rules that never actually feed each
/// other, which costs scheduling freedom but never correctness.
///
/// The SCC condensation of the positive edges partitions the rules into
/// groups of mutually recursive rules whose ids are a topological order;
/// the group count is part of the analyzer's program shape report.
class RelianceGraph {
 public:
  /// Constraints participate as nodes (they rely on their body
  /// predicates but, having no head, nothing relies on them).
  explicit RelianceGraph(const datalog::Program& program);

  size_t num_rules() const { return positive_.size(); }

  /// Rules whose positive body reads a head predicate of `rule`
  /// (ascending, deduplicated).
  const std::vector<uint32_t>& PositiveReliers(size_t rule) const {
    return positive_[rule];
  }
  /// Rules whose negated body atoms read a head predicate of `rule`.
  const std::vector<uint32_t>& NegativeReliers(size_t rule) const {
    return negative_[rule];
  }

  /// SCC condensation over the positive edges; ascending group id is a
  /// topological order (common::StronglyConnectedComponents guarantee).
  uint32_t num_groups() const { return scc_.num_components; }
  uint32_t GroupOf(size_t rule) const { return scc_.component[rule]; }

 private:
  std::vector<std::vector<uint32_t>> positive_;
  std::vector<std::vector<uint32_t>> negative_;
  common::SccResult scc_;
};

}  // namespace triq::analysis

#endif  // TRIQ_ANALYSIS_RELIANCE_H_
