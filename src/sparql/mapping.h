#ifndef TRIQ_SPARQL_MAPPING_H_
#define TRIQ_SPARQL_MAPPING_H_

#include <string>
#include <utility>
#include <vector>

#include "common/dictionary.h"

namespace triq::sparql {

/// A SPARQL solution mapping µ: a partial function V → U (Section 3.1).
/// Entries are kept sorted by variable id, so equality and hashing are
/// canonical.
class SparqlMapping {
 public:
  SparqlMapping() = default;

  bool IsBound(SymbolId var) const;
  /// Returns the value of `var`, or kInvalidSymbol if unbound.
  SymbolId Get(SymbolId var) const;
  /// Binds `var` to `value` (overwrites any existing binding).
  void Bind(SymbolId var, SymbolId value);
  void Unbind(SymbolId var);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<std::pair<SymbolId, SymbolId>>& entries() const {
    return entries_;
  }

  /// dom(µ1) ∩ dom(µ2) agree pointwise (µ1 ~ µ2).
  static bool Compatible(const SparqlMapping& a, const SparqlMapping& b);
  /// µ1 ∪ µ2 for compatible mappings.
  static SparqlMapping Merge(const SparqlMapping& a, const SparqlMapping& b);

  /// µ|W: restriction to the variable set `vars`.
  SparqlMapping Restrict(const std::vector<SymbolId>& vars) const;

  std::string ToString(const Dictionary& dict) const;

  friend bool operator==(const SparqlMapping& a, const SparqlMapping& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator<(const SparqlMapping& a, const SparqlMapping& b) {
    return a.entries_ < b.entries_;
  }

 private:
  // Sorted by variable id.
  std::vector<std::pair<SymbolId, SymbolId>> entries_;
};

struct SparqlMappingHash {
  size_t operator()(const SparqlMapping& m) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [var, val] : m.entries()) {
      h ^= (static_cast<uint64_t>(var) << 32) | val;
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// A set of mappings Ω. Stored as a deduplicated vector.
class MappingSet {
 public:
  MappingSet() = default;
  /// Takes `distinct` as the set as it stands, with no membership test:
  /// the caller guarantees its mappings are pairwise distinct (as the
  /// decode of a deduplicated answer relation's tuples is).
  explicit MappingSet(std::vector<SparqlMapping> distinct)
      : mappings_(std::move(distinct)) {}

  /// Inserts `m` if not present (a linear scan); returns true if new.
  bool Insert(const SparqlMapping& m);

  size_t size() const { return mappings_.size(); }
  bool empty() const { return mappings_.empty(); }
  const std::vector<SparqlMapping>& mappings() const { return mappings_; }
  bool Contains(const SparqlMapping& m) const;

  /// Canonical sorted rendering for equality assertions in tests.
  std::string ToString(const Dictionary& dict) const;

  friend bool operator==(const MappingSet& a, const MappingSet& b);

 private:
  std::vector<SparqlMapping> mappings_;
};

/// The SPARQL algebra on mapping sets (Section 3.1): join, union,
/// difference, and left outer join.
MappingSet Join(const MappingSet& a, const MappingSet& b);
MappingSet Union(const MappingSet& a, const MappingSet& b);
MappingSet Difference(const MappingSet& a, const MappingSet& b);
MappingSet LeftOuterJoin(const MappingSet& a, const MappingSet& b);

}  // namespace triq::sparql

#endif  // TRIQ_SPARQL_MAPPING_H_
