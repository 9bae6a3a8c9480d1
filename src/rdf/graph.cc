#include "rdf/graph.h"

#include <algorithm>

namespace triq::rdf {

bool Graph::Add(const Triple& t) {
  if (!set_.insert(t).second) return false;
  triples_.push_back(t);
  return true;
}

bool Graph::Add(std::string_view s, std::string_view p, std::string_view o) {
  return Add(Triple{dict_->Intern(s), dict_->Intern(p), dict_->Intern(o)});
}

void Graph::Match(std::optional<SymbolId> s, std::optional<SymbolId> p,
                  std::optional<SymbolId> o,
                  const std::function<void(const Triple&)>& fn) const {
  for (const Triple& t : triples_) {
    if ((!s || t.subject == *s) && (!p || t.predicate == *p) &&
        (!o || t.object == *o)) {
      fn(t);
    }
  }
}

std::vector<SymbolId> Graph::ActiveDomain() const {
  std::unordered_set<SymbolId> seen;
  for (const Triple& t : triples_) {
    seen.insert(t.subject);
    seen.insert(t.predicate);
    seen.insert(t.object);
  }
  std::vector<SymbolId> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace triq::rdf
