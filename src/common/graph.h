#ifndef TRIQ_COMMON_GRAPH_H_
#define TRIQ_COMMON_GRAPH_H_

#include <cstdint>
#include <vector>

namespace triq::common {

/// Strongly connected components of a directed graph, with component ids
/// numbered in topological order of the condensation.
struct SccResult {
  /// component[v] is the id of v's component, in [0, num_components).
  std::vector<uint32_t> component;
  uint32_t num_components = 0;

  /// True when u and v are mutually reachable.
  bool SameComponent(uint32_t u, uint32_t v) const {
    return component[u] == component[v];
  }
};

/// Tarjan's algorithm (iterative — no recursion depth limit) over an
/// adjacency-list graph whose nodes are [0, adj.size()).
///
/// Numbering guarantee: for every edge u -> v with component[u] !=
/// component[v], component[u] < component[v] — ascending component id is
/// a topological order of the condensation, so schedulers can process
/// components by id and every dependency is already done.
///
/// Shared by datalog::Stratify (predicate graph), analysis::Analyze's
/// rule-group count (rule graph) and the acyclicity checks (position
/// graph), so the three agree on one implementation.
SccResult StronglyConnectedComponents(
    const std::vector<std::vector<uint32_t>>& adj);

}  // namespace triq::common

#endif  // TRIQ_COMMON_GRAPH_H_
