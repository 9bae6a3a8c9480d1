#include "chase/match.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "datalog/atom.h"

namespace triq::chase {

namespace {

using datalog::Atom;
using datalog::Rule;

/// kAuto engages the merge path only when the driver window has at
/// least this many tuples; below it, sorting the window costs more than
/// the probes it saves.
constexpr size_t kAutoMergeMinWindow = 32;

/// Backtracking join over the positive body, with negated atoms checked
/// once their variables are bound (rule safety guarantees this happens
/// after all positive atoms).
///
/// The join order and each atom's access path are planned once up
/// front, and both depend only on *which* variables are bound at each
/// depth plus per-relation statistics — never on bound values — so the
/// plan is identical across all branches of the search, across join
/// strategies, and across thread counts. PlanJoin records it, with the
/// bound positions of every depth, in one DepthPlan per depth; the
/// search, the sharding driver plan and EXPLAIN all read that record.
/// The order is cost-based greedy: the delta atom is pinned first (its
/// window drives the pass), then each depth takes the atom with the
/// smallest estimated match count given the variables bound so far —
/// window size divided by the estimated distinct count
/// (Relation::EstimatedDistinct) of every bound position. On top of the
/// order the planner picks access paths (see JoinStrategy): a
/// leapfrog-triejoin residual when the strategy calls for it (the
/// driver enumerates as usual; the remaining atoms are joined
/// variable-at-a-time over lexicographic permutations with galloping
/// seeks), else a depth-1 merge cursor when the first two atoms share a
/// variable, with per-binding posting probes — binary-searched Equal()
/// ranges, scanning the shortest — as the fallback everywhere deeper.
class Matcher {
 public:
  Matcher(const Rule& rule, const Instance& instance,
          const MatchOptions& options,
          const std::function<bool(const Match&)>& fn)
      : rule_(rule), instance_(instance), options_(options), fn_(fn) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].negated) {
        negative_.push_back(&rule.body[i]);
      } else {
        positive_.push_back(static_cast<int>(i));
      }
    }
    // positive_ is built in body order, so slot order == body order and
    // refs_ can be handed to the callback without re-sorting.
    refs_.resize(positive_.size());
    if (options.seed != nullptr) binding_ = *options.seed;
    PlanJoin();
  }

  Status Run() {
    deadline_set_ =
        options_.deadline != std::chrono::steady_clock::time_point{};
    Recurse(0);
    return status_;
  }

  /// The depth-0 visit order for the parallel chase to slice into shards
  /// (see DriverPlan in match.h): the unsharded matcher's own depth-0
  /// candidate enumeration, collected instead of recursed into.
  DriverPlan MakeDriverPlan() {
    DriverPlan out;
    if (plan_.empty()) return out;
    out.body_index = positive_[plan_[0].slot];
    ForEachCandidate(0, [&](uint32_t idx) {
      out.order.push_back(idx);
      return true;
    });
    return out;
  }

  /// Renders the plan: strategy, then one line per atom in join order
  /// with its access path and the estimate the planner ranked it by.
  std::string Explain() const {
    std::string out = "  strategy: ";
    if (lftj_) {
      out += "leapfrog";
    } else if (plan_.size() >= 2 && plan_[1].access == Access::kMergeCursor) {
      out += "merge";
    } else {
      out += "hash";
    }
    switch (options_.join_strategy) {
      case JoinStrategy::kAuto:
        out += " (auto)";
        break;
      case JoinStrategy::kHash:
      case JoinStrategy::kMerge:
      case JoinStrategy::kLeapfrog:
        out += " (forced)";
        break;
    }
    out += "\n";
    for (size_t depth = 0; depth < plan_.size(); ++depth) {
      const DepthPlan& plan = plan_[depth];
      std::string access;
      switch (plan.access) {
        case Access::kScan:
          access = positive_[plan.slot] == options_.delta_body_index
                       ? "delta-scan"
                       : "scan";
          break;
        case Access::kSortedScan:
          access = "sorted-scan(pos " + std::to_string(plan.pos) + ")";
          break;
        case Access::kPostings:
          access = "postings";
          break;
        case Access::kFindIndex:
          // EXPLAIN has always labelled a fully bound driver "postings".
          access = depth == 0 ? "postings" : "find-index";
          break;
        case Access::kMergeCursor:
          access = "merge-cursor(pos " + std::to_string(plan.pos) + ")";
          break;
        case Access::kLeapfrog: {
          const LfAtom& a = lf_atoms_[depth - 1];
          access = "leapfrog[";
          for (size_t i = 0; i < a.key.size(); ++i) {
            if (i > 0) access += ",";
            access += std::to_string(a.key[i]);
          }
          access += "]";
          break;
        }
      }
      char est_buf[32];
      std::snprintf(est_buf, sizeof(est_buf), "%.3g", plan.est);
      out += "  " + std::to_string(depth) + ": " +
             AtomToString(AtomAt(depth), instance_.dict()) + "  " + access +
             "  rows~" + est_buf + " (window " + std::to_string(plan.size()) +
             ")\n";
    }
    return out;
  }

 private:
  /// How one join depth reads its atom's relation.
  enum class Access : uint8_t {
    // The whole window, ascending tuple index.
    kScan,
    // Depth 0: the window in value order of column `pos`, feeding the
    // merge cursor (a kScan below kAutoMergeMinWindow under kAuto).
    kSortedScan,
    // The shortest of the bound positions' posting ranges.
    kPostings,
    // Every position bound: one dedup-table lookup.
    kFindIndex,
    // Depth 1: a galloping cursor over the sorted permutation of column
    // `pos` while the driver runs in value order, else probed like
    // kPostings / kFindIndex.
    kMergeCursor,
    // Depth >= 1: one trie of the leapfrog residual.
    kLeapfrog,
  };

  /// One planned join step: the slot enumerated at this depth, its
  /// relation and clamped window, the access path, and the estimate it
  /// was ranked by. `first_arg` indexes the atom's entries in bind_depth_.
  struct DepthPlan {
    int slot = -1;
    Access access = Access::kScan;
    uint32_t pos = 0;  // the column kSortedScan / kMergeCursor orders by
    const Relation* rel = nullptr;  // null: absent or arity mismatch
    size_t begin = 0;
    size_t end = 0;
    uint32_t first_arg = 0;
    uint32_t num_bound = 0;
    double est = 0.0;

    size_t size() const { return end > begin ? end - begin : 0; }
  };

  const Atom& AtomAt(size_t depth) const {
    return rule_.body[positive_[plan_[depth].slot]];
  }
  /// The join depth whose atom binds argument `pos` of the depth-`depth`
  /// atom; -1 for constants and seed-bound variables.
  int BindDepth(size_t depth, uint32_t pos) const {
    return bind_depth_[plan_[depth].first_arg + pos];
  }
  bool BoundAt(size_t depth, uint32_t pos) const {
    return BindDepth(depth, pos) < static_cast<int>(depth);
  }
  bool FullyBound(size_t depth) const {
    size_t arity = AtomAt(depth).args.size();
    return arity > 0 && plan_[depth].num_bound == arity;
  }

  /// Computes the join order (hoisting the greedy most-bound-first
  /// heuristic out of the recursion), records which positions each depth
  /// finds bound, and assigns access paths. The only code that works out
  /// boundness; everything else reads bind_depth_ and plan_.
  void PlanJoin() {
    plan_.resize(positive_.size());
    std::vector<bool> used(positive_.size(), false);
    size_t num_args = 0;
    for (int body_index : positive_) {
      num_args += rule_.body[body_index].args.size();
    }
    bind_depth_.reserve(num_args);
    // Variables bound so far, with the depth that binds them.
    std::vector<std::pair<Term, int>> bound;
    bound.reserve(num_args +
                  (options_.seed != nullptr ? options_.seed->size() : 0));
    if (options_.seed != nullptr) {
      for (const auto& [var, val] : options_.seed->entries()) {
        bound.emplace_back(var, -1);
      }
    }
    auto find = [&](Term t) {
      return std::find_if(bound.begin(), bound.end(),
                          [&](const auto& entry) { return entry.first == t; });
    };
    auto is_bound = [&](Term t) {
      return !t.IsVariable() || find(t) != bound.end();
    };
    for (size_t depth = 0; depth < positive_.size(); ++depth) {
      DepthPlan& plan = plan_[depth];
      plan = PickNextAtom(used, is_bound);
      used[plan.slot] = true;
      plan.first_arg = static_cast<uint32_t>(bind_depth_.size());
      const Atom& atom = AtomAt(depth);
      for (Term t : atom.args) {
        int at = -1;
        if (t.IsVariable()) {
          auto it = find(t);
          if (it == bound.end()) {
            bound.emplace_back(t, static_cast<int>(depth));
            at = static_cast<int>(depth);
          } else {
            at = it->second;
          }
        }
        bind_depth_.push_back(at);
      }
      if (FullyBound(depth)) {
        plan.access = Access::kFindIndex;
      } else if (plan.num_bound > 0) {
        plan.access = Access::kPostings;
      }
    }
    if (options_.join_strategy == JoinStrategy::kHash || plan_.size() < 2) {
      return;
    }
    if (ShouldLeapfrog()) {
      PlanLeapfrog();
      return;
    }
    // Merge join needs a driver that full-scans its window (no bound
    // argument — probes would enumerate in tuple-index order) and a
    // second atom sharing one of the driver's variables. The shared
    // variable must be bound at its first occurrence in the driver, so
    // its bind order follows the sorted column.
    if (plan_[0].num_bound > 0) return;
    const Atom& a0 = AtomAt(0);
    const Atom& a1 = AtomAt(1);
    for (uint32_t p = 0; p < a0.args.size(); ++p) {
      Term var = a0.args[p];
      bool first_occurrence = true;
      for (uint32_t q = 0; q < p; ++q) {
        if (a0.args[q] == var) first_occurrence = false;
      }
      if (!first_occurrence) continue;
      for (uint32_t q = 0; q < a1.args.size(); ++q) {
        if (a1.args[q] != var) continue;
        plan_[0].access = Access::kSortedScan;
        plan_[0].pos = p;
        plan_[1].access = Access::kMergeCursor;
        plan_[1].pos = q;
        return;
      }
    }
  }

  /// The plan step for slot `i` given which variables are bound: its
  /// relation and effective window, and the estimated number of matching
  /// tuples per intermediate binding — the window size divided by the
  /// estimated distinct count of every statically-bound position (the
  /// Trident/RDF-3X selectivity-from-index-statistics model, read off the
  /// O(1) per-position sketches so estimating never syncs an index).
  /// Value-independent, hence identical across strategies and thread
  /// counts. A fully bound atom caps at one row — it resolves through the
  /// dedup table.
  template <typename BoundFn>
  DepthPlan EstimateAtom(int i, const BoundFn& is_bound) const {
    DepthPlan plan;
    plan.slot = i;
    const Atom& atom = rule_.body[positive_[i]];
    const Relation* rel = instance_.Find(atom.predicate);
    if (rel != nullptr && rel->arity() == atom.args.size()) {
      plan.rel = rel;
      auto [begin, end] = SlotWindow(i);
      plan.begin = begin;
      plan.end = std::min(end, rel->size());
    }
    plan.est = static_cast<double>(plan.size());
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      if (!is_bound(atom.args[pos])) continue;
      ++plan.num_bound;
      if (plan.size() > 0) {
        plan.est /= std::max(1.0, rel->EstimatedDistinct(pos));
      }
    }
    if (plan.num_bound == atom.args.size() && !atom.args.empty()) {
      plan.est = std::min(plan.est, 1.0);
    }
    return plan;
  }

  // Cost-based greedy ordering: the delta atom is pinned first (its
  // window is the pass's driver), then each depth takes the unprocessed
  // atom with the smallest estimated match count under the variables
  // bound so far. Ties break deterministically: more bound positions,
  // then smaller window, then lower slot index — never a value or an
  // address.
  template <typename BoundFn>
  DepthPlan PickNextAtom(const std::vector<bool>& used,
                         const BoundFn& is_bound) const {
    for (size_t i = 0; i < positive_.size(); ++i) {
      if (!used[i] && positive_[i] == options_.delta_body_index) {
        return EstimateAtom(static_cast<int>(i), is_bound);
      }
    }
    DepthPlan best;
    for (size_t i = 0; i < positive_.size(); ++i) {
      if (used[i]) continue;
      DepthPlan next = EstimateAtom(static_cast<int>(i), is_bound);
      if (!options_.greedy_atom_order) return next;
      bool better = best.slot == -1 || next.est < best.est ||
                    (next.est == best.est &&
                     (next.num_bound > best.num_bound ||
                      (next.num_bound == best.num_bound &&
                       next.size() < best.size())));
      if (better) best = next;
    }
    return best;
  }

  /// Whether the plan runs the residual (every atom below the driver)
  /// as one leapfrog triejoin. kLeapfrog forces it whenever there is a
  /// residual; kAuto requires ≥3 positive atoms and ≥2 residual atoms
  /// sharing a variable the driver leaves unbound — the shape where a
  /// binary plan materializes an intermediate result the multi-way
  /// intersection never builds. Value-independent.
  bool ShouldLeapfrog() const {
    if (options_.join_strategy == JoinStrategy::kLeapfrog) return true;
    if (options_.join_strategy != JoinStrategy::kAuto) return false;
    if (plan_.size() < 3) return false;
    for (size_t d1 = 1; d1 < plan_.size(); ++d1) {
      const Atom& a1 = AtomAt(d1);
      for (uint32_t pos = 0; pos < a1.args.size(); ++pos) {
        if (BindDepth(d1, pos) < 1) continue;  // the seed or driver binds it
        for (size_t d2 = d1 + 1; d2 < plan_.size(); ++d2) {
          for (Term t : AtomAt(d2).args) {
            if (t == a1.args[pos]) return true;
          }
        }
      }
    }
    return false;
  }

  /// Builds the leapfrog residual plan: per residual atom a trie key —
  /// restricted positions (constants and variables the seed or driver
  /// binds) in ascending position order, then each leapfrog variable's
  /// occurrence positions as one contiguous level group — and per
  /// variable its participant list. Variables are ordered by first
  /// unbound occurrence across the residual in join order. All of it is
  /// value-independent. The lex permutations are fetched here, so the
  /// first matcher to plan over a relation builds them (Relation::LexPerm
  /// serializes concurrent shards' builds).
  void PlanLeapfrog() {
    lftj_ = true;
    std::vector<Term> order;  // leapfrog variables, first occurrence
    for (size_t depth = 1; depth < plan_.size(); ++depth) {
      const Atom& atom = AtomAt(depth);
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        Term t = atom.args[pos];
        if (BindDepth(depth, pos) >= 1 &&
            std::find(order.begin(), order.end(), t) == order.end()) {
          order.push_back(t);
        }
      }
    }
    lf_vars_.resize(order.size());
    for (size_t vi = 0; vi < order.size(); ++vi) lf_vars_[vi].var = order[vi];

    for (size_t depth = 1; depth < plan_.size(); ++depth) {
      const DepthPlan& plan = plan_[depth];
      const Atom& atom = AtomAt(depth);
      LfAtom a;
      a.slot = plan.slot;
      a.atom = &atom;
      a.rel = plan.rel;
      if (a.rel == nullptr) lf_possible_ = false;
      a.window_end = plan.end;  // residual atoms scan [0, end)
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        if (BindDepth(depth, pos) < 1) {
          a.levels.push_back(LfLevel{pos, atom.args[pos], -1, nullptr});
        }
      }
      a.num_restricted = a.levels.size();
      int atom_index = static_cast<int>(lf_atoms_.size());
      for (size_t vi = 0; vi < order.size(); ++vi) {
        LfOcc occ;
        occ.atom = atom_index;
        occ.level_begin = 0;
        bool found = false;
        for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
          if (atom.args[pos] != order[vi]) continue;
          if (!found) {
            occ.level_begin = static_cast<uint32_t>(a.levels.size());
            found = true;
          }
          a.levels.push_back(
              LfLevel{pos, atom.args[pos], static_cast<int>(vi), nullptr});
        }
        if (found) {
          occ.level_end = static_cast<uint32_t>(a.levels.size());
          lf_vars_[vi].occs.push_back(occ);
        }
      }
      a.fully_restricted = a.num_restricted == a.levels.size();
      plan_[depth].access =
          a.fully_restricted ? Access::kFindIndex : Access::kLeapfrog;
      for (const LfLevel& level : a.levels) a.key.push_back(level.pos);
      if (a.rel != nullptr && !a.fully_restricted) {
        a.perm = &a.rel->LexPerm(a.key);
        for (LfLevel& level : a.levels) {
          level.col = a.rel->Column(level.pos).begin();
        }
      }
      lf_atoms_.push_back(std::move(a));
    }
  }

  /// Runs the leapfrog residual for the current depth-0 binding:
  /// narrows every atom's trie slice through its restricted prefix,
  /// resolves fully-restricted atoms through the dedup table, then
  /// intersects variable by variable. Returns false only to propagate
  /// the callback's early stop.
  bool RunLeapfrog() {
    for (LfAtom& a : lf_atoms_) {
      if (a.fully_restricted) {
        // Every position bound: O(1) membership witness, no trie walk.
        probe_tuple_.clear();
        for (Term arg : a.atom->args) {
          probe_tuple_.push_back(binding_.Apply(arg));
        }
        uint32_t idx = a.rel->FindIndex(probe_tuple_);
        if (idx == Relation::kNotFound || idx >= a.window_end) return true;
        refs_[a.slot] = FactRef{a.atom->predicate, idx};
        continue;
      }
      const std::vector<uint32_t>& perm = *a.perm;
      a.lo = perm.data();
      a.hi = perm.data() + perm.size();
      for (size_t d = 0; d < a.num_restricted; ++d) {
        Term v = binding_.Apply(a.levels[d].pattern);
        SortedRange eq = SortedRange(a.lo, a.hi, a.levels[d].col).Equal(v);
        if (eq.empty()) return true;
        a.lo = eq.begin();
        a.hi = eq.end();
      }
    }
    return LeapfrogVar(0);
  }

  /// The leapfrog loop for one join variable: gallop every participant's
  /// cursor to the running max of the current level until all agree,
  /// narrow each participant through the variable's occurrence levels,
  /// bind and recurse, then resume past the value. Scratch lives in
  /// member stacks (mark/restore) so the hot path never allocates.
  bool LeapfrogVar(size_t vi) {
    if (vi == lf_vars_.size()) return LeapfrogLeaf();
    const LfVar& var = lf_vars_[vi];
    const size_t k = var.occs.size();
    const size_t save_mark = lf_save_.size();
    for (const LfOcc& occ : var.occs) {
      lf_save_.push_back(lf_atoms_[occ.atom].lo);
      lf_save_.push_back(lf_atoms_[occ.atom].hi);
    }
    // Per-participant scratch: [3j] = resume point past the current
    // value, [3j+1] / [3j+2] = the narrowed child slice.
    const size_t ptr_mark = lf_ptrs_.size();
    lf_ptrs_.resize(ptr_mark + 3 * k);
    bool keep_going = true;
    for (;;) {
      // The gallop can align cursors for a long time without emitting a
      // single match (so the chase's per-match deadline check would
      // never run): poll the clock here, once per 1024 alignment
      // rounds across the whole pass.
      if (DeadlineTripped()) {
        keep_going = false;
        break;
      }
      // Current max over the participants' first-occurrence levels.
      Term vmax;
      bool exhausted = false;
      for (size_t j = 0; j < k; ++j) {
        const LfAtom& a = lf_atoms_[var.occs[j].atom];
        if (a.lo == a.hi) {
          exhausted = true;
          break;
        }
        Term v = a.levels[var.occs[j].level_begin].col[*a.lo];
        if (j == 0 || vmax < v) vmax = v;
      }
      if (exhausted) break;
      // Gallop everyone to >= vmax; an overshoot raises the max and
      // restarts the alignment round.
      bool aligned = true;
      for (size_t j = 0; j < k; ++j) {
        LfAtom& a = lf_atoms_[var.occs[j].atom];
        const Term* col = a.levels[var.occs[j].level_begin].col;
        a.lo = SortedRange(a.lo, a.hi, col).SeekValue(a.lo, vmax);
        if (a.lo == a.hi) {
          exhausted = true;
          break;
        }
        if (col[*a.lo] != vmax) aligned = false;
      }
      if (exhausted) break;
      if (!aligned) continue;
      // All participants sit on vmax: slice out its equal range (the
      // resume point is its end) and narrow through any repeated
      // occurrences of the variable in the same atom.
      bool all_nonempty = true;
      for (size_t j = 0; j < k; ++j) {
        LfAtom& a = lf_atoms_[var.occs[j].atom];
        const LfOcc& occ = var.occs[j];
        SortedRange eq =
            SortedRange(a.lo, a.hi, a.levels[occ.level_begin].col)
                .Equal(vmax);
        lf_ptrs_[ptr_mark + 3 * j] = eq.end();
        const uint32_t* nlo = eq.begin();
        const uint32_t* nhi = eq.end();
        for (uint32_t d = occ.level_begin + 1;
             d < occ.level_end && nlo != nhi; ++d) {
          SortedRange sub =
              SortedRange(nlo, nhi, a.levels[d].col).Equal(vmax);
          nlo = sub.begin();
          nhi = sub.end();
        }
        lf_ptrs_[ptr_mark + 3 * j + 1] = nlo;
        lf_ptrs_[ptr_mark + 3 * j + 2] = nhi;
        if (nlo == nhi) all_nonempty = false;
      }
      if (all_nonempty) {
        for (size_t j = 0; j < k; ++j) {
          LfAtom& a = lf_atoms_[var.occs[j].atom];
          a.lo = lf_ptrs_[ptr_mark + 3 * j + 1];
          a.hi = lf_ptrs_[ptr_mark + 3 * j + 2];
        }
        const size_t bind_mark = binding_.size();
        binding_.Bind(var.var, vmax);
        keep_going = LeapfrogVar(vi + 1);
        binding_.PopTo(bind_mark);
        if (!keep_going) break;
      }
      // Resume past vmax: cursor to the equal range's end, slice end
      // back to the pre-loop bound.
      for (size_t j = 0; j < k; ++j) {
        LfAtom& a = lf_atoms_[var.occs[j].atom];
        a.lo = lf_ptrs_[ptr_mark + 3 * j];
        a.hi = lf_save_[save_mark + 2 * j + 1];
      }
    }
    // Restore the participants' slices for the caller's next value.
    for (size_t j = 0; j < k; ++j) {
      LfAtom& a = lf_atoms_[var.occs[j].atom];
      a.lo = lf_save_[save_mark + 2 * j];
      a.hi = lf_save_[save_mark + 2 * j + 1];
    }
    lf_save_.resize(save_mark);
    lf_ptrs_.resize(ptr_mark);
    return keep_going;
  }

  /// Every leapfrog variable is bound: each non-restricted atom's slice
  /// is fully narrowed, and duplicate-free storage makes it a singleton
  /// witness. Window checks happen here — slices are value-ordered, so
  /// the tuple-index cap can only be enforced on the witness itself.
  bool LeapfrogLeaf() {
    for (const LfAtom& a : lf_atoms_) {
      if (a.fully_restricted) continue;  // resolved in RunLeapfrog
      if (a.lo == a.hi) return true;
      uint32_t idx = *a.lo;
      if (idx >= a.window_end) return true;
      refs_[a.slot] = FactRef{a.atom->predicate, idx};
    }
    return EmitIfNegativesHold();
  }

  // Returns false to propagate early termination.
  bool Recurse(size_t depth) {
    if (depth == positive_.size()) return EmitIfNegativesHold();
    if (lftj_ && depth == 1) {
      // The whole residual runs as one leapfrog join per driver tuple.
      // An absent residual relation means no matches at all.
      return lf_possible_ ? RunLeapfrog() : true;
    }
    return EnumerateCandidates(depth);
  }

  // The tuple-index window this slot's atom is allowed to scan (see the
  // MatchOptions contract).
  std::pair<size_t, size_t> SlotWindow(int slot) const {
    int body_index = positive_[slot];
    if (body_index == options_.delta_body_index) {
      return {options_.delta_begin, options_.delta_end};
    }
    size_t end = kNoTupleLimit;
    if (static_cast<size_t>(body_index) < options_.atom_end.size()) {
      end = options_.atom_end[body_index];
    }
    return {0, end};
  }

  bool EnumerateCandidates(size_t depth) {
    const DepthPlan& plan = plan_[depth];
    if (plan.rel == nullptr) return true;
    const Relation* rel = plan.rel;
    const Atom& atom = AtomAt(depth);

    auto try_tuple = [&](uint32_t idx) -> bool {
      TupleView tuple = rel->tuple(idx);
      size_t mark = binding_.size();
      bool unified = true;
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        Term pattern = binding_.Apply(atom.args[pos]);
        if (pattern.IsVariable()) {
          binding_.Bind(pattern, tuple[pos]);
        } else if (pattern != tuple[pos]) {
          unified = false;
          break;
        }
      }
      bool keep_going = true;
      if (unified) {
        refs_[plan.slot] = FactRef{atom.predicate, idx};
        keep_going = Recurse(depth + 1);
      }
      binding_.PopTo(mark);
      return keep_going;
    };

    // Injected depth-0 shard (parallel chase): enumerate exactly the
    // given indices — a slice of PlanMatchDriver's window-clamped order.
    // Bound positions are re-checked by try_tuple's unification.
    if (depth == 0 && options_.driver_order != nullptr) {
      if (positive_[plan.slot] != options_.driver_body_index) {
        status_ = Status::Internal(
            "sharded match pass planned body atom " +
            std::to_string(options_.driver_body_index) +
            " as the driver but the join plan enumerates atom " +
            std::to_string(positive_[plan.slot]) + " first");
        return false;
      }
      if (SortedDriver()) OpenMergeCursor();
      for (size_t i = 0; i < options_.driver_order_size; ++i) {
        if (!try_tuple(options_.driver_order[i])) return false;
      }
      return true;
    }
    return ForEachCandidate(depth, try_tuple);
  }

  /// Feeds `visit` the candidate tuple indices of the depth-`depth` atom
  /// under the current binding, read through the planned access path, in
  /// the order the join visits them; stops (returning false) when
  /// `visit` does. A candidate may still disagree with the binding (a
  /// scan checks no position, a posting probe only the position of its
  /// shortest range), so `visit` must unify.
  template <typename Visit>
  bool ForEachCandidate(size_t depth, const Visit& visit) {
    const DepthPlan& plan = plan_[depth];
    if (plan.rel == nullptr) return true;
    const Relation* rel = plan.rel;
    const Atom& atom = AtomAt(depth);
    const size_t begin = plan.begin;
    const size_t end = plan.end;
    if (begin >= end) return true;

    Access access = plan.access;
    if (access == Access::kMergeCursor) {
      if (merge_active_) {
        // The driver is feeding us nondecreasing values of the shared
        // variable, so one galloping cursor walks the sorted permutation
        // forward instead of probing per binding.
        Term v = binding_.Apply(atom.args[plan.pos]);
        cursor_ = cursor_range_.SeekValue(cursor_, v);
        for (const uint32_t* it = cursor_;
             it != cursor_range_.end() && cursor_range_.ValueAt(it) == v;
             ++it) {
          uint32_t idx = *it;
          if (idx < begin || idx >= end) continue;
          if (!visit(idx)) return false;
        }
        return true;
      }
      // The driver ran in tuple-index order: probe per binding.
      access = FullyBound(depth) ? Access::kFindIndex : Access::kPostings;
    }

    if (access == Access::kFindIndex) {
      // The dedup table answers the membership question in O(1); no
      // posting range (or permutation sync) needed. Head-satisfaction
      // probes with a fully bound frontier take this path even while the
      // relation is growing between firings.
      probe_tuple_.clear();
      for (Term arg : atom.args) probe_tuple_.push_back(binding_.Apply(arg));
      uint32_t idx = rel->FindIndex(probe_tuple_);
      if (idx == Relation::kNotFound || idx < begin || idx >= end) {
        return true;
      }
      return visit(idx);
    }

    if (access == Access::kPostings) {
      // Scan only the shortest bound posting range: `visit` unifies
      // every bound position, so the longer ranges need no walk.
      SortedRange shortest;
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        if (!BoundAt(depth, pos)) continue;
        SortedRange p = rel->Postings(pos, binding_.Apply(atom.args[pos]));
        if (p.empty()) return true;  // some bound position has no fact
        if (shortest.empty() || p.size() < shortest.size()) shortest = p;
      }
      // Posting entries ascend by tuple index, so the window seek is a
      // binary search instead of a skip-scan.
      for (const uint32_t* it = std::lower_bound(
               shortest.begin(), shortest.end(), static_cast<uint32_t>(begin));
           it != shortest.end() && *it < end; ++it) {
        if (!visit(*it)) return false;
      }
      return true;
    }

    // Full window scan; the sorted driver orders it by value to feed the
    // merge cursor.
    if (access == Access::kSortedScan && SortedDriver()) {
      OpenMergeCursor();
      rel->SortWindow(plan.pos, static_cast<uint32_t>(begin),
                      static_cast<uint32_t>(end), &window_perm_);
      for (uint32_t idx : window_perm_) {
        if (!visit(idx)) return false;
      }
      return true;
    }
    for (uint32_t idx = static_cast<uint32_t>(begin); idx < end; ++idx) {
      if (!visit(idx)) return false;
    }
    return true;
  }

  /// Whether depth 0 runs in value order as the merge join's driver: a
  /// kSortedScan whose non-empty window is large enough to amortize
  /// sorting it (any size under kMerge), over a second atom with a
  /// non-empty relation for the cursor to walk (else the driver scans in
  /// index order; depth 1 finds no candidates either way). Reads only
  /// the plan, so an unsharded pass and every shard of its driver order
  /// decide alike.
  bool SortedDriver() const {
    const DepthPlan& driver = plan_[0];
    if (driver.access != Access::kSortedScan || driver.size() == 0) {
      return false;
    }
    if (options_.join_strategy != JoinStrategy::kMerge &&
        driver.size() < kAutoMergeMinWindow) {
      return false;
    }
    return plan_[1].rel != nullptr && plan_[1].rel->size() > 0;
  }

  /// Opens the depth-1 sorted permutation the merge cursor walks.
  void OpenMergeCursor() {
    cursor_range_ = plan_[1].rel->Sorted(plan_[1].pos);
    cursor_ = cursor_range_.begin();
    merge_active_ = true;
  }

  bool EmitIfNegativesHold() {
    for (const Atom* atom : negative_) {
      scratch_tuple_.clear();
      for (Term t : atom->args) {
        Term v = binding_.Apply(t);
        if (v.IsVariable()) {
          // An unsafe rule slipped past Program validation; error out
          // instead of silently treating the negation as satisfied.
          status_ = Status::InvalidArgument(
              "negated atom over predicate " +
              instance_.dict().Text(atom->predicate) +
              " has an unbound variable after matching the positive body; "
              "the rule is unsafe");
          return false;
        }
        scratch_tuple_.push_back(v);
      }
      if (instance_.Contains(atom->predicate, scratch_tuple_)) return true;
    }
    Match match{&binding_, &refs_};
    return fn_(match);
  }

  const Rule& rule_;
  const Instance& instance_;
  const MatchOptions& options_;
  const std::function<bool(const Match&)>& fn_;

  std::vector<int> positive_;        // body indices of positive atoms
  std::vector<const Atom*> negative_;
  std::vector<DepthPlan> plan_;      // depth -> slot + access path
  std::vector<int> bind_depth_;      // per planned argument, see BindDepth
  std::vector<FactRef> refs_;        // matched fact per slot (= body order)
  Tuple scratch_tuple_;              // reused for negated-atom probes
  Tuple probe_tuple_;                // reused for fully-ground atom probes
  std::vector<uint32_t> window_perm_;  // driver window in value order
  SortedRange cursor_range_;         // depth-1 sorted permutation
  const uint32_t* cursor_ = nullptr;
  bool merge_active_ = false;

  /// One trie level of a leapfrog atom: the column position it walks,
  /// the atom argument at that position (a constant or a variable), the
  /// leapfrog variable index that owns the level (-1 = restricted), and
  /// the column base pointer (resolved at plan time; storage never
  /// moves during a pass).
  struct LfLevel {
    uint32_t pos;
    Term pattern;
    int var;
    const Term* col;
  };
  /// One residual atom in the leapfrog plan: its trie key (level
  /// positions), its lex permutation, and the current slice [lo, hi)
  /// into that permutation as the join descends.
  struct LfAtom {
    int slot = -1;
    const Atom* atom = nullptr;
    const Relation* rel = nullptr;
    size_t window_end = 0;
    std::vector<uint32_t> key;
    std::vector<LfLevel> levels;
    size_t num_restricted = 0;
    bool fully_restricted = false;
    const std::vector<uint32_t>* perm = nullptr;
    const uint32_t* lo = nullptr;
    const uint32_t* hi = nullptr;
  };
  /// One occurrence group: `atom`'s levels [level_begin, level_end) all
  /// carry the same leapfrog variable.
  struct LfOcc {
    int atom = 0;
    uint32_t level_begin = 0;
    uint32_t level_end = 0;
  };
  struct LfVar {
    Term var;
    std::vector<LfOcc> occs;
  };
  bool lftj_ = false;        // residual runs as a leapfrog triejoin
  bool lf_possible_ = true;  // false: a residual relation is absent
  std::vector<LfAtom> lf_atoms_;
  std::vector<LfVar> lf_vars_;
  // Recursion scratch stacks (see LeapfrogVar); grown once, reused.
  std::vector<const uint32_t*> lf_save_;
  std::vector<const uint32_t*> lf_ptrs_;

  /// Polls the pass deadline every 1024 calls; on expiry records
  /// ResourceExhausted in status_ and returns true so the caller
  /// unwinds through the usual early-stop path.
  bool DeadlineTripped() {
    if (!deadline_set_ || (++deadline_steps_ & 1023u) != 0) return false;
    if (std::chrono::steady_clock::now() < options_.deadline) return false;
    status_ = Status::ResourceExhausted("match pass exceeded the deadline");
    return true;
  }

  bool deadline_set_ = false;
  uint64_t deadline_steps_ = 0;

  Binding binding_;
  Status status_ = Status::OK();
};

}  // namespace

Status MatchBody(const datalog::Rule& rule, const Instance& instance,
                 const MatchOptions& options,
                 const std::function<bool(const Match&)>& fn) {
  return Matcher(rule, instance, options, fn).Run();
}

DriverPlan PlanMatchDriver(const datalog::Rule& rule,
                           const Instance& instance,
                           const MatchOptions& options) {
  std::function<bool(const Match&)> noop = [](const Match&) { return true; };
  return Matcher(rule, instance, options, noop).MakeDriverPlan();
}

std::string ExplainMatchPlan(const datalog::Rule& rule,
                             const Instance& instance,
                             const MatchOptions& options) {
  std::function<bool(const Match&)> noop = [](const Match&) { return true; };
  return Matcher(rule, instance, options, noop).Explain();
}

bool HasMatch(const std::vector<datalog::Atom>& atoms,
              const Instance& instance, const Binding& seed) {
  Rule probe;
  probe.body = atoms;
  for (Atom& a : probe.body) a.negated = false;
  MatchOptions options;
  options.seed = &seed;
  bool found = false;
  // The probe body is positive-only, so MatchBody cannot fail.
  TRIQ_IGNORE_STATUS(MatchBody(probe, instance, options, [&](const Match&) {
    found = true;
    return false;  // stop at first witness
  }));
  return found;
}

}  // namespace triq::chase
