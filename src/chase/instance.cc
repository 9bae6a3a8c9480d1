#include "chase/instance.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace triq::chase {

bool Instance::AddFact(PredicateId predicate, TupleView tuple,
                       FactRef* ref_out) {
  Result<bool> inserted = AddFactChecked(predicate, tuple, ref_out);
  return inserted.ok() && *inserted;  // arity mismatch: rejected, not inserted
}

Result<bool> Instance::AddFactChecked(PredicateId predicate, TupleView tuple,
                                      FactRef* ref_out) {
  Relation& rel = GetOrCreate(predicate, tuple.size());
  if (rel.arity() != tuple.size()) {
    return Status::InvalidArgument(
        "fact for predicate " + dict_->Text(predicate) + " has width " +
        std::to_string(tuple.size()) + " but its relation has arity " +
        std::to_string(rel.arity()));
  }
  uint32_t idx = 0;
  bool inserted = rel.Insert(tuple, &idx);
  if (ref_out != nullptr) *ref_out = FactRef{predicate, idx};
  return inserted;
}

bool Instance::AddFact(std::string_view predicate,
                       const std::vector<std::string>& constants) {
  Tuple tuple;
  tuple.reserve(constants.size());
  for (const std::string& c : constants) {
    tuple.push_back(Term::Constant(dict_->Intern(c)));
  }
  return AddFact(dict_->Intern(predicate), tuple);
}

const Relation* Instance::Find(PredicateId predicate) const {
  if (base_ == nullptr) {
    return predicate < by_predicate_.size() ? by_predicate_[predicate]
                                            : nullptr;
  }
  auto it = relations_.find(predicate);
  return it != relations_.end() ? &it->second : base_->Find(predicate);
}

const Relation* Instance::Find(std::string_view predicate) const {
  SymbolId id = dict_->Find(predicate);
  return id == kInvalidSymbol ? nullptr : Find(id);
}

Relation& Instance::GetOrCreate(PredicateId predicate, uint32_t arity) {
  if (base_ != nullptr) {
    auto [it, created] = relations_.try_emplace(predicate, arity);
    // An overlay must never grow a relation its base already has — the
    // overlay copy would shadow the base facts in Find(). The engine's
    // claim registry keeps query-derived predicates disjoint from data
    // predicates, so this cannot fire for engine traffic.
    assert(!created || base_->Find(predicate) == nullptr);
    return it->second;
  }
  if (predicate < by_predicate_.size() &&
      by_predicate_[predicate] != nullptr) {
    return *by_predicate_[predicate];
  }
  Relation& rel =
      relations_.emplace(predicate, Relation(arity)).first->second;
  if (predicate >= by_predicate_.size()) {
    by_predicate_.resize(predicate + 1, nullptr);
  }
  by_predicate_[predicate] = &rel;
  return rel;
}

bool Instance::Contains(PredicateId predicate, TupleView tuple) const {
  const Relation* rel = Find(predicate);
  return rel != nullptr && rel->arity() == tuple.size() &&
         rel->Contains(tuple);
}

size_t Instance::TotalFacts() const {
  size_t total = base_ != nullptr ? base_->TotalFacts() : 0;
  for (const auto& [pred, rel] : relations_) total += rel.size();
  return total;
}

std::unordered_map<PredicateId, size_t> Instance::RelationSizes() const {
  std::unordered_map<PredicateId, size_t> out;
  if (base_ != nullptr) out = base_->RelationSizes();
  for (const auto& [pred, rel] : relations_) out[pred] = rel.size();
  return out;
}

void Instance::FreezeAllIndexes() const {
  for (const auto& [pred, rel] : relations_) {
    for (uint32_t pos = 0; pos < rel.arity(); ++pos) rel.Sorted(pos);
  }
}

Instance Instance::CloneFacts() const {
  assert(base_ == nullptr && "overlays are scratch state, never cloned");
  Instance out(dict_);
  out.relations_ = relations_;
  out.next_null_id_ = next_null_id_;
  out.null_depths_ = null_depths_;
  out.by_predicate_.assign(by_predicate_.size(), nullptr);
  for (auto& [pred, rel] : out.relations_) out.by_predicate_[pred] = &rel;
  return out;
}

std::vector<datalog::Atom> Instance::AllFacts() const {
  std::vector<datalog::Atom> out;
  for (const auto& [pred, rel] : relations_) {
    for (TupleView t : rel.tuples()) {
      out.push_back(datalog::Atom{pred, t.ToTuple(), false});
    }
  }
  return out;
}

std::vector<datalog::Atom> Instance::GroundFacts() const {
  std::vector<datalog::Atom> out;
  for (const auto& [pred, rel] : relations_) {
    for (TupleView t : rel.tuples()) {
      bool ground = std::all_of(t.begin(), t.end(),
                                [](Term x) { return x.IsConstant(); });
      if (ground) out.push_back(datalog::Atom{pred, t.ToTuple(), false});
    }
  }
  return out;
}

std::string Instance::ToString() const {
  std::vector<std::string> lines;
  for (const datalog::Atom& fact : AllFacts()) {
    lines.push_back(datalog::AtomToString(fact, *dict_));
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  for (const std::string& line : lines) out << line << '\n';
  return out.str();
}

void Instance::RecordDerivation(FactRef fact, Derivation derivation) {
  derivations_.emplace(fact, std::move(derivation));
}

const Derivation* Instance::FindDerivation(FactRef fact) const {
  auto it = derivations_.find(fact);
  return it == derivations_.end() ? nullptr : &it->second;
}

Term Instance::AllocateNull(uint32_t depth) {
  uint32_t id = next_null_id_++;
  null_depths_.push_back(depth);
  return Term::Null(id);
}

uint32_t Instance::NullDepth(Term null) const {
  if (!null.IsNull()) return 0;
  uint32_t id = null.null_id();
  if (id < null_base_) return base_->NullDepth(null);
  id -= null_base_;
  return id < null_depths_.size() ? null_depths_[id] : 0;
}

Result<rdf::Graph> Instance::ToGraph(std::string_view predicate) const {
  rdf::Graph out(dict_);
  const Relation* rel = Find(predicate);
  if (rel == nullptr) return out;  // empty predicate: empty graph
  if (rel->arity() != 3) {
    return Status::InvalidArgument(
        "only ternary predicates can be exported as RDF graphs");
  }
  auto to_symbol = [&](Term t) -> SymbolId {
    if (t.IsConstant()) return t.symbol();
    return dict_->Intern("_:n" + std::to_string(t.null_id()));
  };
  for (TupleView t : rel->tuples()) {
    out.Add(to_symbol(t[0]), to_symbol(t[1]), to_symbol(t[2]));
  }
  return out;
}

namespace {

/// Parses the `_:n<k>` blank-node rendering ToGraph emits for labeled
/// nulls; returns false for every other symbol.
bool ParseExportedNull(const std::string& text, uint32_t* id_out) {
  if (text.size() < 4 || text.compare(0, 3, "_:n") != 0) return false;
  uint64_t id = 0;
  for (size_t i = 3; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
    if (id > 0x3fffffffULL) return false;  // beyond the Term payload
  }
  *id_out = static_cast<uint32_t>(id);
  return true;
}

}  // namespace

Instance Instance::FromGraph(const rdf::Graph& graph,
                             std::string_view predicate) {
  Instance instance(graph.dict_ptr());
  PredicateId pred = instance.dict().Intern(predicate);
  // Bulk load: size the columns and dedup table once up front.
  instance.GetOrCreate(pred, 3).Reserve(static_cast<uint32_t>(graph.size()));
  // Distinct blank-node symbols map to freshly allocated nulls (depth 0:
  // they are database-level) in first-occurrence order, so occurrences of
  // one blank node share one null. Remapping — instead of trusting the
  // parsed id — keeps a crafted `_:n<huge>` symbol from forcing a huge
  // null registry.
  std::unordered_map<SymbolId, Term> blank_nulls;
  auto to_term = [&](SymbolId s) -> Term {
    uint32_t null_id = 0;
    if (!ParseExportedNull(instance.dict().Text(s), &null_id)) {
      return Term::Constant(s);
    }
    auto [it, inserted] = blank_nulls.emplace(s, Term());
    if (inserted) it->second = instance.AllocateNull(0);
    return it->second;
  };
  for (const rdf::Triple& t : graph.triples()) {
    instance.AddFact(pred, Tuple{to_term(t.subject), to_term(t.predicate),
                                 to_term(t.object)});
  }
  return instance;
}

}  // namespace triq::chase
