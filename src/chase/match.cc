#include "chase/match.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

#include "datalog/atom.h"

namespace triq::chase {

namespace {

using datalog::Atom;
using datalog::Rule;

/// kAuto engages the merge path only when the driver window has at
/// least this many tuples; below it, sorting the window costs more than
/// the probes it saves.
constexpr size_t kAutoMergeMinWindow = 32;

/// How one join depth reads its atom's relation.
enum class Access : uint8_t {
  // The whole window, ascending tuple index.
  kScan,
  // Depth 0, only when the merge join engages: the window in value
  // order of column `pos`, feeding the merge cursor.
  kSortedScan,
  // The shortest of the bound positions' posting ranges.
  kPostings,
  // Every position bound: one dedup-table lookup.
  kFindIndex,
  // Depth 1, only when the merge join engages: a galloping cursor over
  // the sorted permutation of column `pos`.
  kMergeCursor,
  // Depth >= 1: one trie of the leapfrog residual.
  kLeapfrog,
};

/// A read-only run of candidate tuple indices: ids[0, size) when `ids`
/// is set, else the ascending run first, first + 1, ... (a scan window,
/// or the one tuple a dedup lookup found).
struct Candidates {
  const uint32_t* ids = nullptr;
  uint32_t first = 0;
  size_t size = 0;

  uint32_t operator[](size_t i) const {
    return ids != nullptr ? ids[i] : first + static_cast<uint32_t>(i);
  }
};

/// One planned join step: the slot enumerated at this depth, its
/// relation and clamped window, the access path, and the estimate it
/// was ranked by. `first_arg` indexes the atom's entries in bind_depth.
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

/// One trie level of a leapfrog atom: the column position it walks, the
/// atom argument at that position (a constant or a variable), the
/// leapfrog variable index that owns the level (-1 = restricted), and
/// the column base pointer (resolved at plan time; storage never moves
/// during a pass).
struct LfLevel {
  uint32_t pos;
  Term pattern;
  int var;
  const Term* col;
};
/// One residual atom in the leapfrog plan: its trie key (level
/// positions) and its lex permutation. A run keeps the atom's current
/// slice of that permutation in its own LfSlice.
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
/// A run's current slice [lo, hi) of one leapfrog atom's permutation as
/// the join descends.
struct LfSlice {
  const uint32_t* lo = nullptr;
  const uint32_t* hi = nullptr;
};

}  // namespace

/// The planned half of a JoinPass: a backtracking join over the positive
/// body, with negated atoms checked once their variables are bound (rule
/// safety guarantees this happens after all positive atoms).
///
/// The join order and each atom's access path are planned once up
/// front, and both depend only on *which* variables are bound at each
/// depth plus per-relation statistics — never on bound values — so the
/// plan is identical across all branches of the search, across join
/// strategies, and across thread counts. PlanJoin records it, with the
/// bound positions of every depth, in one DepthPlan per depth; the
/// search, the driver and EXPLAIN all read that record.
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
/// variable and the driver window is worth sorting, with per-binding
/// posting probes — binary-searched Equal() ranges, scanning the
/// shortest — as the fallback everywhere deeper. The depth-0 candidates
/// (the driver) are resolved once too, into one span every run and
/// slice reads. Immutable once built; every run reads it through a
/// Matcher of its own.
struct JoinPass::Plan {
  Plan(const Rule& r, const Instance& inst, const MatchOptions& opts)
      : rule(r), instance(inst), options(opts) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].negated) {
        negative.push_back(&rule.body[i]);
      } else {
        positive.push_back(static_cast<int>(i));
      }
    }
    PlanJoin();
    ResolveDriver();
  }

  /// Renders the plan: strategy, then one line per atom in join order
  /// with its access path and the estimate the planner ranked it by.
  std::string Explain() const {
    std::string out = "  strategy: ";
    if (lftj) {
      out += "leapfrog";
    } else if (depths.size() >= 2 &&
               depths[1].access == Access::kMergeCursor) {
      out += "merge";
    } else {
      out += "hash";
    }
    out += options.join_strategy == JoinStrategy::kAuto ? " (auto)\n"
                                                        : " (forced)\n";
    for (size_t depth = 0; depth < depths.size(); ++depth) {
      const DepthPlan& plan = depths[depth];
      std::string access;
      switch (plan.access) {
        case Access::kScan:
          access = positive[plan.slot] == options.delta_body_index
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
          const LfAtom& a = lf_atoms[depth - 1];
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
             AtomToString(AtomAt(depth), instance.dict()) + "  " + access +
             "  rows~" + est_buf + " (window " + std::to_string(plan.size()) +
             ")\n";
    }
    return out;
  }

  const Atom& AtomAt(size_t depth) const {
    return rule.body[positive[depths[depth].slot]];
  }
  /// The join depth whose atom binds argument `pos` of the depth-`depth`
  /// atom; -1 for constants and seed-bound variables.
  int BindDepth(size_t depth, uint32_t pos) const {
    return bind_depth[depths[depth].first_arg + pos];
  }
  bool BoundAt(size_t depth, uint32_t pos) const {
    return BindDepth(depth, pos) < static_cast<int>(depth);
  }
  bool FullyBound(size_t depth) const {
    size_t arity = AtomAt(depth).args.size();
    return arity > 0 && depths[depth].num_bound == arity;
  }

  /// Computes the join order (hoisting the greedy most-bound-first
  /// heuristic out of the recursion), records which positions each depth
  /// finds bound, and assigns access paths. The only code that works out
  /// boundness; everything else reads bind_depth and depths.
  void PlanJoin() {
    depths.resize(positive.size());
    std::vector<bool> used(positive.size(), false);
    size_t num_args = 0;
    for (int body_index : positive) {
      num_args += rule.body[body_index].args.size();
    }
    bind_depth.reserve(num_args);
    // Variables bound so far, with the depth that binds them.
    std::vector<std::pair<Term, int>> bound;
    bound.reserve(num_args +
                  (options.seed != nullptr ? options.seed->size() : 0));
    if (options.seed != nullptr) {
      for (const auto& [var, val] : options.seed->entries()) {
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
    for (size_t depth = 0; depth < positive.size(); ++depth) {
      DepthPlan& plan = depths[depth];
      plan = PickNextAtom(used, is_bound);
      used[plan.slot] = true;
      plan.first_arg = static_cast<uint32_t>(bind_depth.size());
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
        bind_depth.push_back(at);
      }
      // A fully bound atom is one dedup lookup; a partly bound one
      // probes postings, except at depth 0 when its window starts past
      // tuple 0 (a delta window). The probe would extend the relation's
      // whole permutation every round to read its newest tuples; the
      // scan visits the same candidates in the same ascending order and
      // lets unification drop the rest.
      if (FullyBound(depth)) {
        plan.access = Access::kFindIndex;
      } else if (plan.num_bound > 0 && (depth > 0 || plan.begin == 0)) {
        plan.access = Access::kPostings;
      }
    }
    if (options.join_strategy == JoinStrategy::kHash || depths.size() < 2) {
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
    // its bind order follows the sorted column. It engages only over a
    // non-empty driver window large enough to amortize sorting it (any
    // size under kMerge) and a non-empty second relation for the cursor
    // to walk; otherwise both atoms keep the access paths above.
    const DepthPlan& driver = depths[0];
    if (driver.num_bound > 0 || driver.size() == 0 ||
        depths[1].rel == nullptr || depths[1].rel->size() == 0 ||
        (options.join_strategy != JoinStrategy::kMerge &&
         driver.size() < kAutoMergeMinWindow)) {
      return;
    }
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
        depths[0].access = Access::kSortedScan;
        depths[0].pos = p;
        depths[1].access = Access::kMergeCursor;
        depths[1].pos = q;
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
    const Atom& atom = rule.body[positive[i]];
    const Relation* rel = instance.Find(atom.predicate);
    if (rel != nullptr && rel->arity() == atom.args.size()) {
      // The window the atom may scan (see the MatchOptions contract).
      plan.rel = rel;
      size_t end = kNoTupleLimit;
      if (positive[i] == options.delta_body_index) {
        plan.begin = options.delta_begin;
        end = options.delta_end;
      } else if (static_cast<size_t>(positive[i]) < options.atom_end.size()) {
        end = options.atom_end[positive[i]];
      }
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
    for (size_t i = 0; i < positive.size(); ++i) {
      if (!used[i] && positive[i] == options.delta_body_index) {
        return EstimateAtom(static_cast<int>(i), is_bound);
      }
    }
    DepthPlan best;
    for (size_t i = 0; i < positive.size(); ++i) {
      if (used[i]) continue;
      DepthPlan next = EstimateAtom(static_cast<int>(i), is_bound);
      if (!options.greedy_atom_order) return next;
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
    if (options.join_strategy == JoinStrategy::kLeapfrog) return true;
    if (options.join_strategy != JoinStrategy::kAuto) return false;
    if (depths.size() < 3) return false;
    for (size_t d1 = 1; d1 < depths.size(); ++d1) {
      const Atom& a1 = AtomAt(d1);
      for (uint32_t pos = 0; pos < a1.args.size(); ++pos) {
        if (BindDepth(d1, pos) < 1) continue;  // the seed or driver binds it
        for (size_t d2 = d1 + 1; d2 < depths.size(); ++d2) {
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
  /// value-independent. The lex permutations are fetched here, once per
  /// pass, so the pass builds any it lacks (Relation::LexPerm serializes
  /// concurrent passes' builds).
  void PlanLeapfrog() {
    lftj = true;
    std::vector<Term> order;  // leapfrog variables, first occurrence
    for (size_t depth = 1; depth < depths.size(); ++depth) {
      const Atom& atom = AtomAt(depth);
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        Term t = atom.args[pos];
        if (BindDepth(depth, pos) >= 1 &&
            std::find(order.begin(), order.end(), t) == order.end()) {
          order.push_back(t);
        }
      }
    }
    lf_vars.resize(order.size());
    for (size_t vi = 0; vi < order.size(); ++vi) lf_vars[vi].var = order[vi];

    for (size_t depth = 1; depth < depths.size(); ++depth) {
      const DepthPlan& plan = depths[depth];
      const Atom& atom = AtomAt(depth);
      LfAtom a;
      a.slot = plan.slot;
      a.atom = &atom;
      a.rel = plan.rel;
      a.window_end = plan.end;  // residual atoms scan [0, end)
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        if (BindDepth(depth, pos) < 1) {
          a.levels.push_back(LfLevel{pos, atom.args[pos], -1, nullptr});
        }
      }
      a.num_restricted = a.levels.size();
      int atom_index = static_cast<int>(lf_atoms.size());
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
          lf_vars[vi].occs.push_back(occ);
        }
      }
      a.fully_restricted = a.num_restricted == a.levels.size();
      depths[depth].access =
          a.fully_restricted ? Access::kFindIndex : Access::kLeapfrog;
      for (const LfLevel& level : a.levels) a.key.push_back(level.pos);
      if (a.rel != nullptr && !a.fully_restricted) {
        a.perm = &a.rel->LexPerm(a.key);
        for (LfLevel& level : a.levels) {
          level.col = a.rel->Column(level.pos).begin();
        }
      }
      lf_atoms.push_back(std::move(a));
    }
  }

  /// The candidates of the depth-`depth` atom under `binding`, read
  /// through its planned access path: the window for a scan, one
  /// dedup-table lookup for a fully bound atom, else the shortest bound
  /// posting range clamped to the window. A candidate may still disagree
  /// with the binding (a scan checks no position, a posting range only
  /// its own), so callers unify. `probe` is the caller's scratch tuple.
  Candidates Probe(size_t depth, const Binding& binding, Tuple* probe) const {
    const DepthPlan& plan = depths[depth];
    if (plan.size() == 0) return {};
    const Atom& atom = AtomAt(depth);
    if (plan.access == Access::kFindIndex) {
      // The dedup table answers the membership question in O(1); no
      // posting range (or permutation sync) needed. Head-satisfaction
      // probes with a fully bound frontier take this path even while the
      // relation is growing between firings.
      probe->clear();
      for (Term arg : atom.args) probe->push_back(binding.Apply(arg));
      uint32_t idx = plan.rel->FindIndex(*probe);
      if (idx == Relation::kNotFound || idx < plan.begin || idx >= plan.end) {
        return {};
      }
      return Candidates{nullptr, idx, 1};
    }
    if (plan.access != Access::kPostings) {
      return Candidates{nullptr, static_cast<uint32_t>(plan.begin),
                        plan.size()};
    }
    // Only the shortest bound posting range: callers unify every bound
    // position, so the longer ranges need no walk.
    SortedRange shortest;
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      if (!BoundAt(depth, pos)) continue;
      SortedRange p = plan.rel->Postings(pos, binding.Apply(atom.args[pos]));
      if (p.empty()) return {};  // some bound position has no fact
      if (shortest.empty() || p.size() < shortest.size()) shortest = p;
    }
    // Posting entries ascend by tuple index, so clamping to the window
    // is a binary search at either end (skipped when it covers them).
    const uint32_t* lo = shortest.begin();
    const uint32_t* hi = shortest.end();
    if (lo != hi && *lo < plan.begin) {
      lo = std::lower_bound(lo, hi, static_cast<uint32_t>(plan.begin));
    }
    if (lo != hi && hi[-1] >= plan.end) {
      hi = std::lower_bound(lo, hi, static_cast<uint32_t>(plan.end));
    }
    return Candidates{lo, 0, static_cast<size_t>(hi - lo)};
  }

  /// Resolves the driver every run and slice reads: the window sorted
  /// by the driver column when the merge join engages (and the sorted
  /// permutation its cursor walks), else what the depth-0 access path
  /// finds under the seed. A body without a positive atom has one
  /// driver position: the empty match.
  void ResolveDriver() {
    if (depths.empty()) {
      driver = Candidates{nullptr, 0, 1};
      return;
    }
    const DepthPlan& plan = depths[0];
    if (plan.access == Access::kSortedScan) {
      plan.rel->SortWindow(plan.pos, static_cast<uint32_t>(plan.begin),
                           static_cast<uint32_t>(plan.end), &sorted_driver);
      driver = Candidates{sorted_driver.data(), 0, sorted_driver.size()};
      cursor = depths[1].rel->Sorted(depths[1].pos);
      return;
    }
    Tuple probe;
    driver = Probe(0, options.seed != nullptr ? *options.seed : Binding(),
                   &probe);
  }

  const Rule& rule;
  const Instance& instance;
  const MatchOptions& options;

  std::vector<int> positive;  // body indices of positive atoms
  std::vector<const Atom*> negative;
  std::vector<DepthPlan> depths;  // depth -> slot + access path
  std::vector<int> bind_depth;    // per planned argument, see BindDepth
  bool lftj = false;              // residual runs as a leapfrog triejoin
  std::vector<LfAtom> lf_atoms;
  std::vector<LfVar> lf_vars;
  Candidates driver;                   // depth 0, see ResolveDriver
  std::vector<uint32_t> sorted_driver;  // the merge driver's window
  SortedRange cursor;                  // the permutation the cursor walks
};

/// One run over a planned pass: the scratch state the search mutates
/// (binding, probe tuples, merge cursor, leapfrog slices, deadline
/// poll). Concurrent slices of a pass share only the immutable Plan.
class JoinPass::Matcher {
 public:
  /// A run over positions [begin, end) of the plan's driver.
  Matcher(const Plan& plan, const MatchFn& fn, size_t begin, size_t end)
      : plan_(plan),
        fn_(fn),
        begin_(begin),
        end_(end),
        deadline_set_(plan.options.deadline !=
                      std::chrono::steady_clock::time_point{}),
        refs_(plan.positive.size()),
        cursor_(plan.cursor.begin()),
        lf_slices_(plan.lf_atoms.size()) {
    // positive is in body order, so slot order == body order and refs_
    // can be handed to the callback without re-sorting.
    if (plan.options.seed != nullptr) binding_ = *plan.options.seed;
  }

  Status Run() {
    if (!DeadlineTripped()) Recurse(0);
    return status_;
  }

 private:
  /// Polls the deadline on the first call (the run's start) and every
  /// 1024th after, counting candidate visits and leapfrog rounds; on
  /// expiry records ResourceExhausted in status_ and returns true so the
  /// caller unwinds through the usual early-stop path.
  bool DeadlineTripped() {
    if (!deadline_set_ || (deadline_steps_++ & 1023u) != 0 ||
        std::chrono::steady_clock::now() < plan_.options.deadline) {
      return false;
    }
    status_ = Status::ResourceExhausted("match pass exceeded the deadline");
    return true;
  }

  /// Runs the leapfrog residual for the current depth-0 binding:
  /// narrows every atom's trie slice through its restricted prefix,
  /// resolves fully-restricted atoms through the dedup table, then
  /// intersects variable by variable. An absent residual relation means
  /// no matches. Returns false only to propagate the callback's early
  /// stop.
  bool RunLeapfrog() {
    for (size_t i = 0; i < plan_.lf_atoms.size(); ++i) {
      const LfAtom& a = plan_.lf_atoms[i];
      if (a.rel == nullptr) return true;
      if (a.fully_restricted) {
        // Every position bound: O(1) membership witness, no trie walk.
        Candidates hit = plan_.Probe(i + 1, binding_, &probe_tuple_);
        if (hit.size == 0) return true;
        refs_[a.slot] = FactRef{a.atom->predicate, hit[0]};
        continue;
      }
      LfSlice& s = lf_slices_[i];
      s.lo = a.perm->data();
      s.hi = a.perm->data() + a.perm->size();
      for (size_t d = 0; d < a.num_restricted; ++d) {
        Term v = binding_.Apply(a.levels[d].pattern);
        SortedRange eq = SortedRange(s.lo, s.hi, a.levels[d].col).Equal(v);
        if (eq.empty()) return true;
        s.lo = eq.begin();
        s.hi = eq.end();
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
    if (vi == plan_.lf_vars.size()) return LeapfrogLeaf();
    const LfVar& var = plan_.lf_vars[vi];
    const size_t k = var.occs.size();
    // The column of participant j's first occurrence level.
    auto first_col = [&](size_t j) {
      const LfOcc& occ = var.occs[j];
      return plan_.lf_atoms[occ.atom].levels[occ.level_begin].col;
    };
    const size_t save_mark = lf_save_.size();
    for (const LfOcc& occ : var.occs) {
      lf_save_.push_back(lf_slices_[occ.atom].lo);
      lf_save_.push_back(lf_slices_[occ.atom].hi);
    }
    // Per-participant scratch: [3j] = resume point past the current
    // value, [3j+1] / [3j+2] = the narrowed child slice.
    const size_t ptr_mark = lf_ptrs_.size();
    lf_ptrs_.resize(ptr_mark + 3 * k);
    bool keep_going = true;
    for (;;) {
      // The gallop can align cursors for a long time without visiting a
      // single candidate, so it polls the deadline itself.
      if (DeadlineTripped()) {
        keep_going = false;
        break;
      }
      // Current max over the participants' first-occurrence levels.
      Term vmax;
      bool exhausted = false;
      for (size_t j = 0; j < k; ++j) {
        const LfSlice& s = lf_slices_[var.occs[j].atom];
        if (s.lo == s.hi) {
          exhausted = true;
          break;
        }
        Term v = first_col(j)[*s.lo];
        if (j == 0 || vmax < v) vmax = v;
      }
      if (exhausted) break;
      // Gallop everyone to >= vmax; an overshoot raises the max and
      // restarts the alignment round.
      bool aligned = true;
      for (size_t j = 0; j < k; ++j) {
        LfSlice& s = lf_slices_[var.occs[j].atom];
        const Term* col = first_col(j);
        s.lo = SortedRange(s.lo, s.hi, col).SeekValue(s.lo, vmax);
        if (s.lo == s.hi) {
          exhausted = true;
          break;
        }
        if (col[*s.lo] != vmax) aligned = false;
      }
      if (exhausted) break;
      if (!aligned) continue;
      // All participants sit on vmax: slice out its equal range (the
      // resume point is its end) and narrow through any repeated
      // occurrences of the variable in the same atom.
      bool all_nonempty = true;
      for (size_t j = 0; j < k; ++j) {
        const LfOcc& occ = var.occs[j];
        const LfSlice& s = lf_slices_[occ.atom];
        const std::vector<LfLevel>& levels = plan_.lf_atoms[occ.atom].levels;
        SortedRange eq = SortedRange(s.lo, s.hi, first_col(j)).Equal(vmax);
        lf_ptrs_[ptr_mark + 3 * j] = eq.end();
        const uint32_t* nlo = eq.begin();
        const uint32_t* nhi = eq.end();
        for (uint32_t d = occ.level_begin + 1;
             d < occ.level_end && nlo != nhi; ++d) {
          SortedRange sub = SortedRange(nlo, nhi, levels[d].col).Equal(vmax);
          nlo = sub.begin();
          nhi = sub.end();
        }
        lf_ptrs_[ptr_mark + 3 * j + 1] = nlo;
        lf_ptrs_[ptr_mark + 3 * j + 2] = nhi;
        if (nlo == nhi) all_nonempty = false;
      }
      if (all_nonempty) {
        for (size_t j = 0; j < k; ++j) {
          LfSlice& s = lf_slices_[var.occs[j].atom];
          s.lo = lf_ptrs_[ptr_mark + 3 * j + 1];
          s.hi = lf_ptrs_[ptr_mark + 3 * j + 2];
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
        LfSlice& s = lf_slices_[var.occs[j].atom];
        s.lo = lf_ptrs_[ptr_mark + 3 * j];
        s.hi = lf_save_[save_mark + 2 * j + 1];
      }
    }
    // Restore the participants' slices for the caller's next value.
    for (size_t j = 0; j < k; ++j) {
      LfSlice& s = lf_slices_[var.occs[j].atom];
      s.lo = lf_save_[save_mark + 2 * j];
      s.hi = lf_save_[save_mark + 2 * j + 1];
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
    for (size_t i = 0; i < plan_.lf_atoms.size(); ++i) {
      const LfAtom& a = plan_.lf_atoms[i];
      if (a.fully_restricted) continue;  // resolved in RunLeapfrog
      const LfSlice& s = lf_slices_[i];
      if (s.lo == s.hi) return true;
      uint32_t idx = *s.lo;
      if (idx >= a.window_end) return true;
      refs_[a.slot] = FactRef{a.atom->predicate, idx};
    }
    return EmitIfNegativesHold();
  }

  // Returns false to propagate early termination.
  bool Recurse(size_t depth) {
    if (depth == plan_.positive.size()) return EmitIfNegativesHold();
    if (plan_.lftj && depth == 1) {
      // The whole residual runs as one leapfrog join per driver tuple.
      return RunLeapfrog();
    }
    return deadline_set_ ? EnumerateCandidates<true>(depth)
                         : EnumerateCandidates<false>(depth);
  }

  // kPoll: whether candidate visits poll the deadline (compiled out of
  // the visit loop of a pass that has none).
  template <bool kPoll>
  bool EnumerateCandidates(size_t depth) {
    const DepthPlan& plan = plan_.depths[depth];
    const Relation* rel = plan.rel;
    const Atom& atom = plan_.AtomAt(depth);

    auto try_tuple = [&](uint32_t idx) -> bool {
      if (kPoll && DeadlineTripped()) return false;
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

    // try_tuple's unification re-checks what a candidate run leaves
    // unchecked. Depth 0 reads this run's positions of the driver.
    if (depth == 0) {
      for (size_t i = begin_; i < end_; ++i) {
        if (!try_tuple(plan_.driver[i])) return false;
      }
      return true;
    }
    if (plan.access == Access::kMergeCursor) {
      // The driver feeds nondecreasing values of the shared variable, so
      // one galloping cursor walks the sorted permutation forward
      // instead of probing per binding.
      const SortedRange& range = plan_.cursor;
      Term v = binding_.Apply(atom.args[plan.pos]);
      cursor_ = range.SeekValue(cursor_, v);
      for (const uint32_t* it = cursor_;
           it != range.end() && range.ValueAt(it) == v; ++it) {
        if (*it < plan.begin || *it >= plan.end) continue;
        if (!try_tuple(*it)) return false;
      }
      return true;
    }
    const Candidates candidates = plan_.Probe(depth, binding_, &probe_tuple_);
    for (size_t i = 0; i < candidates.size; ++i) {
      if (!try_tuple(candidates[i])) return false;
    }
    return true;
  }

  bool EmitIfNegativesHold() {
    for (const Atom* atom : plan_.negative) {
      scratch_tuple_.clear();
      for (Term t : atom->args) {
        Term v = binding_.Apply(t);
        if (v.IsVariable()) {
          // An unsafe rule slipped past Program validation; error out
          // instead of silently treating the negation as satisfied.
          status_ = Status::InvalidArgument(
              "negated atom over predicate " +
              plan_.instance.dict().Text(atom->predicate) +
              " has an unbound variable after matching the positive body; "
              "the rule is unsafe");
          return false;
        }
        scratch_tuple_.push_back(v);
      }
      if (plan_.instance.Contains(atom->predicate, scratch_tuple_)) {
        return true;
      }
    }
    Match match{&binding_, &refs_};
    return fn_(match);
  }

  const Plan& plan_;
  const MatchFn& fn_;
  const size_t begin_;  // this run's positions [begin_, end_) of the
  const size_t end_;    // plan's driver
  const bool deadline_set_;  // options.deadline is not the epoch

  Binding binding_;
  std::vector<FactRef> refs_;        // matched fact per slot (= body order)
  Tuple scratch_tuple_;              // reused for negated-atom probes
  Tuple probe_tuple_;                // reused for fully-ground atom probes
  const uint32_t* cursor_;           // merge cursor into plan_.cursor
  std::vector<LfSlice> lf_slices_;   // per leapfrog atom
  // Recursion scratch stacks (see LeapfrogVar); grown once, reused.
  std::vector<const uint32_t*> lf_save_;
  std::vector<const uint32_t*> lf_ptrs_;
  uint64_t deadline_steps_ = 0;
  Status status_ = Status::OK();
};

JoinPass::JoinPass(const datalog::Rule& rule, const Instance& instance,
                   const MatchOptions& options)
    : plan_(std::make_unique<const Plan>(rule, instance, options)) {}

JoinPass::~JoinPass() = default;

size_t JoinPass::DriverSize() const { return plan_->driver.size; }

Status JoinPass::Run(const MatchFn& fn) const {
  return RunSlice(0, DriverSize(), fn);
}

Status JoinPass::RunSlice(size_t begin, size_t end, const MatchFn& fn) const {
  assert(begin <= end && end <= DriverSize());
  return Matcher(*plan_, fn, begin, end).Run();
}

std::string JoinPass::Explain() const { return plan_->Explain(); }

Status MatchBody(const datalog::Rule& rule, const Instance& instance,
                 const MatchOptions& options, const MatchFn& fn) {
  return JoinPass(rule, instance, options).Run(fn);
}

std::string ExplainMatchPlan(const datalog::Rule& rule,
                             const Instance& instance,
                             const MatchOptions& options) {
  return JoinPass(rule, instance, options).Explain();
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
