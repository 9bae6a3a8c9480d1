#ifndef TRIQ_RDF_GRAPH_H_
#define TRIQ_RDF_GRAPH_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/dictionary.h"
#include "rdf/triple.h"

namespace triq::rdf {

/// An in-memory RDF graph: a finite set of triples in insertion order.
/// All terms are interned in a Dictionary shared with the query engine,
/// so joins over URIs are integer joins.
class Graph {
 public:
  explicit Graph(std::shared_ptr<Dictionary> dict)
      : dict_(std::move(dict)) {}

  /// Adds a triple of already-interned ids; returns true if new.
  bool Add(const Triple& t);
  bool Add(SymbolId s, SymbolId p, SymbolId o) { return Add(Triple{s, p, o}); }

  /// Convenience: interns the three strings and adds the triple.
  bool Add(std::string_view s, std::string_view p, std::string_view o);

  bool Contains(const Triple& t) const { return set_.count(t) > 0; }
  size_t size() const { return triples_.size(); }
  const std::vector<Triple>& triples() const { return triples_; }

  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }
  const std::shared_ptr<Dictionary>& dict_ptr() const { return dict_; }

  /// Enumerates all triples matching the pattern, in insertion order;
  /// std::nullopt positions are wildcards. A full scan; its one reader is
  /// the direct SPARQL evaluator that tests use as a reference.
  void Match(std::optional<SymbolId> s, std::optional<SymbolId> p,
             std::optional<SymbolId> o,
             const std::function<void(const Triple&)>& fn) const;

  /// All distinct constants mentioned in the graph (the active domain).
  std::vector<SymbolId> ActiveDomain() const;

 private:
  std::shared_ptr<Dictionary> dict_;
  std::vector<Triple> triples_;
  std::unordered_set<Triple, TripleHash> set_;
};

}  // namespace triq::rdf

#endif  // TRIQ_RDF_GRAPH_H_
