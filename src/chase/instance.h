#ifndef TRIQ_CHASE_INSTANCE_H_
#define TRIQ_CHASE_INSTANCE_H_

#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/dictionary.h"
#include "common/result.h"
#include "datalog/atom.h"
#include "chase/relation.h"
#include "rdf/graph.h"

namespace triq::chase {

using datalog::PredicateId;

/// Reference to a stored fact: (predicate, index into its relation).
struct FactRef {
  PredicateId predicate = kInvalidSymbol;
  uint32_t tuple_index = 0;

  friend bool operator==(FactRef a, FactRef b) {
    return a.predicate == b.predicate && a.tuple_index == b.tuple_index;
  }
};

struct FactRefHash {
  size_t operator()(FactRef f) const {
    uint64_t h = (static_cast<uint64_t>(f.predicate) << 32) | f.tuple_index;
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// How a fact entered the instance, for proof-tree extraction (Fig. 1):
/// the rule that fired and the body facts matched by the homomorphism.
/// Database facts have no derivation.
struct Derivation {
  size_t rule_index = 0;
  std::vector<FactRef> body_facts;
};

/// A (finite prefix of a possibly infinite) instance: one Relation per
/// predicate, over a shared Dictionary. This is the paper's notion of an
/// instance over U ∪ B — tuples mix constants and labeled nulls.
///
/// An instance can be an *overlay* over an immutable base instance
/// (MakeOverlay): reads fall through to the base for predicates the
/// overlay has no relation for, and null ids are allocated above the
/// base's range, so a query-time chase can derive query-predicate facts
/// on top of a published snapshot without ever mutating it. The base and
/// overlay predicate sets must be disjoint (the engine checks a query's
/// heads against the snapshot it overlays before chasing) — an overlay
/// never shadows a base relation. An overlay's own state is sized by its
/// own relations: it looks its handful of predicates up in its relation
/// map, never in a vector indexed by predicate id, so a query overlay
/// stays small however far the dictionary has grown.
class Instance {
 public:
  explicit Instance(std::shared_ptr<Dictionary> dict)
      : dict_(std::move(dict)) {}

  /// An empty overlay whose reads fall through to `base`, which must not
  /// grow during the overlay's lifetime and must outlive it. Null
  /// allocation starts above base->null_count().
  static Instance MakeOverlay(const Instance* base) {
    Instance out(base->dict_);
    out.base_ = base;
    out.null_base_ = base->null_count();
    out.next_null_id_ = out.null_base_;
    return out;
  }

  /// The base this instance overlays, or nullptr.
  const Instance* overlay_base() const { return base_; }

  // Movable but not copyable: a root instance's dense predicate lookup
  // points into the relation map's (address-stable, move-invariant)
  // nodes. Use CloneFacts() for an explicit fact-level copy.
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }
  const std::shared_ptr<Dictionary>& dict_ptr() const { return dict_; }

  /// Adds a fact; creates the relation on first use. Returns true if new.
  /// A tuple whose width disagrees with an existing relation's arity is
  /// rejected without inserting (returns false); use AddFactChecked when
  /// the caller needs the error surfaced.
  bool AddFact(PredicateId predicate, TupleView tuple,
               FactRef* ref_out = nullptr);
  bool AddFact(PredicateId predicate, const Tuple& tuple,
               FactRef* ref_out = nullptr) {
    return AddFact(predicate, TupleView(tuple), ref_out);
  }

  /// Like AddFact, but an arity mismatch against the existing relation
  /// returns InvalidArgument instead of being silently dropped. The
  /// value is true iff the fact was newly inserted.
  Result<bool> AddFactChecked(PredicateId predicate, TupleView tuple,
                              FactRef* ref_out = nullptr);

  /// Convenience for tests: `AddFact("edge", {"a", "b"})` with strings
  /// interned as constants.
  bool AddFact(std::string_view predicate,
               const std::vector<std::string>& constants);

  const Relation* Find(PredicateId predicate) const;

  /// Convenience overload: looks `predicate` up in the dictionary
  /// without interning, so it works on a const Instance. Returns
  /// nullptr when the name was never interned or has no relation.
  const Relation* Find(std::string_view predicate) const;

  Relation& GetOrCreate(PredicateId predicate, uint32_t arity);

  bool Contains(PredicateId predicate, TupleView tuple) const;
  bool Contains(PredicateId predicate, const Tuple& tuple) const {
    return Contains(predicate, TupleView(tuple));
  }

  size_t TotalFacts() const;

  /// The relations stored in THIS instance (an overlay's own facts only;
  /// use RelationSizes() for the chase-visible predicate universe).
  const std::unordered_map<PredicateId, Relation>& relations() const {
    return relations_;
  }

  /// Sizes of every chase-visible relation: this instance's own, plus —
  /// for overlays — the base's (which never appear in relations()).
  std::unordered_map<PredicateId, size_t> RelationSizes() const;

  /// Builds every relation's sorted permutation on every position. No
  /// library code calls it — relations build their indexes on first use
  /// — but perfbench's traced replays still do.
  void FreezeAllIndexes() const;

  /// A fact-level copy: same dictionary, relations and null registry,
  /// no derivations. Relations are copied wholesale (flat storage makes
  /// this a handful of memcpys per predicate), so cloning is far cheaper
  /// than re-inserting every fact.
  Instance CloneFacts() const;

  /// All facts, as ground atoms (diagnostics / small tests only).
  std::vector<datalog::Atom> AllFacts() const;

  /// Π(D)↓: the facts whose terms are all constants (Section 6.3).
  std::vector<datalog::Atom> GroundFacts() const;

  /// Renders facts sorted lexicographically (goldens in tests).
  std::string ToString() const;

  /// Provenance (populated by the chase when enabled).
  void RecordDerivation(FactRef fact, Derivation derivation);
  const Derivation* FindDerivation(FactRef fact) const;

  /// Allocates a fresh labeled null at the given chase depth (depth of
  /// the deepest null it was derived from, plus one; database constants
  /// have depth 0). The chase uses depths as a termination safety cap.
  Term AllocateNull(uint32_t depth);

  /// Chase depth of `null`. Constants and unknown null ids (e.g. the
  /// backward prover's placeholders) are database-level: depth 0.
  uint32_t NullDepth(Term null) const;
  uint32_t null_count() const { return next_null_id_; }

  /// Loads an RDF graph as the paper's τ_db(G): one ternary
  /// triple(s, p, o) fact per RDF triple (Section 5.1). Blank-node
  /// symbols of the form `_:n<k>` — the rendering ToGraph emits for
  /// labeled nulls — re-enter as labeled nulls (one fresh null per
  /// distinct blank node, allocated in first-occurrence order), so the
  /// ToGraph/FromGraph round-trip preserves null identity instead of
  /// corrupting nulls into constants.
  static Instance FromGraph(const rdf::Graph& graph,
                            std::string_view predicate = "triple");

  /// τ_db of Turtle text (rdf::ParseTurtle's dialect), staged through a
  /// TripleStager: the result equals FromGraph over the parsed graph —
  /// same dictionary ids, tuple order and null ids — but no graph is
  /// built. A malformed statement fails the whole call; the symbols of
  /// the statements before it stay interned in `dict`.
  static Result<Instance> FromTurtle(std::string_view text,
                                     std::shared_ptr<Dictionary> dict,
                                     std::string_view predicate = "triple");

  /// Streaming variant (rdf::ParseTurtleStream).
  static Result<Instance> FromTurtle(std::istream& in,
                                     std::shared_ptr<Dictionary> dict,
                                     std::string_view predicate = "triple");

  /// The converse: exports a ternary predicate as an RDF graph — the
  /// Section 2 idiom of producing graphs as answers (rule (3)). Labeled
  /// nulls become blank-node URIs `_:n<k>`. Fails if the predicate has
  /// facts of arity != 3.
  Result<rdf::Graph> ToGraph(std::string_view predicate = "triple") const;

 private:
  friend class TripleStager;  // installs its staged relation

  std::shared_ptr<Dictionary> dict_;
  std::unordered_map<PredicateId, Relation> relations_;
  // Root instances only (an overlay leaves it empty and searches
  // relations_): dense Find() lookup, predicate id -> relation pointer
  // (the map's nodes are address-stable). It spans ids up to the largest
  // predicate the instance holds — for a root, data predicates, which
  // the dictionary mostly interns before any query's fresh names.
  // Rebuilt wholesale by CloneFacts.
  std::vector<Relation*> by_predicate_;
  std::unordered_map<FactRef, Derivation, FactRefHash> derivations_;
  // Overlay read-through base (see MakeOverlay); non-owning.
  const Instance* base_ = nullptr;
  uint32_t null_base_ = 0;  // base's null ids occupy [0, null_base_)
  uint32_t next_null_id_ = 0;
  // Depth of null id `null_base_ + i` at index i.
  std::vector<uint32_t> null_depths_;
};

/// Stages RDF statements as τ_db(G) straight into one ternary relation,
/// with no rdf::Graph in between: Add interns the three terms and
/// inserts the triple, and the relation's dedup table drops a repeated
/// one. Blank nodes follow FromGraph's rule: each distinct `_:n<k>`
/// symbol becomes one fresh depth-0 null, in first-occurrence order.
/// Finish interns the predicate name after every statement term, as
/// FromGraph does after the graph's terms, so both give the same
/// dictionary ids, tuple order and null ids for the same statements.
class TripleStager {
 public:
  explicit TripleStager(std::shared_ptr<Dictionary> dict)
      : instance_(std::move(dict)) {}

  /// Pre-sizes the relation for `n` distinct triples.
  void Reserve(uint32_t n) { triples_.Reserve(n); }

  /// Stages one statement. The views are copied (interned) before the
  /// call returns.
  void Add(std::string_view subject, std::string_view predicate,
           std::string_view object);
  void Add(SymbolId subject, SymbolId predicate, SymbolId object);

  /// The staged instance: its `predicate` relation holds every distinct
  /// staged triple, and exists (empty) even when nothing was staged.
  Instance Finish(std::string_view predicate = "triple") &&;

 private:
  Term ToTerm(SymbolId symbol);

  Instance instance_;
  Relation triples_{3};
  std::unordered_map<SymbolId, Term> blank_nulls_;
};

}  // namespace triq::chase

#endif  // TRIQ_CHASE_INSTANCE_H_
