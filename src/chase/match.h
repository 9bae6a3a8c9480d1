#ifndef TRIQ_CHASE_MATCH_H_
#define TRIQ_CHASE_MATCH_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "chase/instance.h"
#include "common/status.h"
#include "datalog/rule.h"

namespace triq::chase {

/// A partial substitution V → U ∪ B. Small rules dominate, so a flat
/// vector with linear lookup beats a hash map here.
class Binding {
 public:
  Term Lookup(Term variable) const {
    for (const auto& [var, val] : entries_) {
      if (var == variable) return val;
    }
    return Term();  // "unbound" sentinel: default Term (constant id 0)
  }
  bool IsBound(Term variable) const {
    return Lookup(variable) != Term();
  }
  void Bind(Term variable, Term value) { entries_.emplace_back(variable, value); }
  void PopTo(size_t size) { entries_.resize(size); }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<Term, Term>>& entries() const {
    return entries_;
  }

  /// Replaces the contents with `n` entries from `data`, reusing the
  /// existing capacity (the chase's staging drain refills one scratch
  /// Binding per match instead of allocating).
  void Assign(const std::pair<Term, Term>* data, size_t n) {
    entries_.assign(data, data + n);
  }

  /// Applies the binding to a term: bound variables are replaced,
  /// everything else passes through.
  Term Apply(Term t) const {
    if (!t.IsVariable()) return t;
    Term v = Lookup(t);
    return v == Term() ? t : v;
  }

 private:
  std::vector<std::pair<Term, Term>> entries_;
};

/// Result of a successful body match: the homomorphism and, for each
/// positive body atom (in body order), the matched stored fact.
struct Match {
  const Binding* binding;
  const std::vector<FactRef>* positive_facts;
};

/// Sentinel for "no upper bound" in the tuple-index windows below.
inline constexpr size_t kNoTupleLimit = static_cast<size_t>(-1);

/// How the join executor accesses each body atom's relation.
///
///  * kHash — per-binding posting probes only: every bound position is
///    looked up with a binary search on the position's sorted
///    permutation, candidates come from the shortest of those posting
///    ranges, and unification checks the other bound positions (the
///    original execution path, kept as the ablation baseline and the
///    fallback).
///  * kMerge — merge join wherever it is structurally available: when
///    the first two atoms in join order share a variable, the driver
///    atom's window is enumerated in value order of that variable and
///    the second atom is read through a monotone galloping cursor on
///    its sorted permutation instead of per-binding probes.
///  * kLeapfrog — leapfrog-triejoin residual: the depth-0 driver atom
///    enumerates as usual (preserving the delta window and sharding
///    contracts), and the remaining atoms are joined simultaneously,
///    variable at a time, by galloping k sorted lexicographic
///    permutations (Relation::LexPerm) to their next common value.
///  * kAuto — the planner picks: leapfrog when ≥3 positive atoms leave
///    ≥2 residual atoms sharing a variable the driver does not bind
///    (triangle/clique-shaped joins, where binary plans churn through
///    intermediate results no output ever needs); otherwise merge join
///    when available and the driver window is large enough to amortize
///    sorting it; posting probes as the fallback.
enum class JoinStrategy : uint8_t { kAuto, kHash, kMerge, kLeapfrog };

/// Options for a body-matching pass.
///
/// Window contract (semi-naive old/delta/all partitioning): each
/// positive body atom scans a half-open window of tuple indices in its
/// predicate's relation.
///  * The atom at `delta_body_index` scans [delta_begin, delta_end).
///  * Every other positive atom `b` scans [0, atom_end[b]) when
///    `atom_end` is non-empty, and the whole relation otherwise.
/// The chase points atoms before the delta atom at the pre-round
/// snapshot ("old") and atoms after it at the round-start snapshot
/// ("all"), so a match joining several delta facts is enumerated in
/// exactly one pass.
struct MatchOptions {
  /// If >= 0, the positive body atom at this body index is the delta
  /// atom and must match a fact with tuple index in
  /// [delta_begin, delta_end).
  int delta_body_index = -1;
  size_t delta_begin = 0;
  size_t delta_end = kNoTupleLimit;
  /// Optional per-body-atom exclusive upper bounds on tuple indices
  /// (body order, negated atoms ignored); empty = no bounds.
  std::vector<size_t> atom_end;
  /// Pre-seeded bindings (used for head-satisfaction checks where the
  /// frontier is already fixed).
  const Binding* seed = nullptr;
  /// Greedy most-bound-first atom ordering; disable for the ablation
  /// baseline that joins atoms in written order (bench E13).
  bool greedy_atom_order = true;
  /// Access-path selection for the join executor (see JoinStrategy).
  /// Composes freely with the window contract above: merge-joined atoms
  /// still respect their delta / atom_end windows.
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  /// Deadline for the whole pass (epoch = disabled). Checked inside the
  /// matcher's own inner loops — in particular the leapfrog gallop,
  /// which can align cursors for a long time without emitting a match,
  /// so a callback-side check alone would never fire. Trips as
  /// ResourceExhausted.
  std::chrono::steady_clock::time_point deadline{};

  /// Depth-0 shard injection (the parallel chase scheduler, chase.cc).
  /// When `driver_order` is non-null, the join's first atom enumerates
  /// exactly driver_order[0 .. driver_order_size) — tuple indices of its
  /// relation, typically one contiguous slice of PlanMatchDriver's
  /// `order` — instead of choosing its own depth-0 access path. The
  /// shard re-derives from its own plan and window whether that order
  /// is the merge-join driver's value order, so the depth-1 merge
  /// cursor engages exactly as in an unsharded run. `driver_body_index`
  /// pins the body atom the shard was planned for; MatchBody returns
  /// Internal on a plan mismatch instead of enumerating the wrong atom.
  /// Any number of shard matchers may run concurrently over one instance
  /// while nothing inserts into it: the permutation indexes they probe
  /// are built on first use under each relation's own lock.
  const uint32_t* driver_order = nullptr;
  size_t driver_order_size = 0;
  int driver_body_index = -1;
};

/// The depth-0 enumeration of a MatchBody pass, exposed so the parallel
/// chase can split it into shards: which body atom the join plan
/// enumerates first, and the exact tuple visit order a single-threaded
/// MatchBody with the same options would use.
///
/// Sharding contract: running MatchBody once per contiguous slice of
/// `order` (MatchOptions::driver_* pointing at the slice) and
/// concatenating the match streams in slice order reproduces the
/// unsharded match stream exactly — same matches, same order.
struct DriverPlan {
  /// Body index of the depth-0 atom; -1 when the body has no positive
  /// atoms (fall back to an unsharded MatchBody).
  int body_index = -1;
  /// Depth-0 tuple visit order, already window-clamped: the window in
  /// value order of the driver column when the merge join engages, else
  /// ascending tuple index. May be a superset of the matching tuples (a
  /// bound driver visits its shortest posting range; shards re-check
  /// every bound position by unification); empty when the pass can have
  /// no matches.
  std::vector<uint32_t> order;
};

/// Plans the depth-0 enumeration for (rule, instance, options). May
/// build the permutation indexes the plan reads, on first use.
DriverPlan PlanMatchDriver(const datalog::Rule& rule,
                           const Instance& instance,
                           const MatchOptions& options);

/// Enumerates all homomorphisms h with h(body+) ⊆ instance and
/// h(body−) ∩ instance = ∅, invoking `fn` per match. `fn` returning
/// false stops the enumeration. Atoms are joined index-nested-loop style
/// with a greedy most-bound-first order. Returns InvalidArgument when a
/// negated atom still has an unbound variable once the positive body is
/// matched (an unsafe rule that bypassed Program validation) instead of
/// silently dropping answers.
Status MatchBody(const datalog::Rule& rule, const Instance& instance,
                 const MatchOptions& options,
                 const std::function<bool(const Match&)>& fn);

/// Convenience: true iff the conjunction of (positive) `atoms` has at
/// least one homomorphism into `instance` extending `seed`.
bool HasMatch(const std::vector<datalog::Atom>& atoms,
              const Instance& instance, const Binding& seed);

/// Renders the join plan MatchBody would execute for (rule, instance,
/// options): one line per positive body atom in join order with its
/// access path and estimated cardinality per intermediate binding, plus
/// the chosen strategy. Reads the same statistics the planner reads
/// (Relation::EstimatedDistinct), so the output reflects the actual
/// decision, not a re-derivation.
std::string ExplainMatchPlan(const datalog::Rule& rule,
                             const Instance& instance,
                             const MatchOptions& options);

}  // namespace triq::chase

#endif  // TRIQ_CHASE_MATCH_H_
