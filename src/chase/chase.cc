#include "chase/chase.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace triq::chase {

namespace {

using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Stratification;

/// Key identifying one rule firing (rule index + full body image), used
/// to avoid refiring existential rules in oblivious mode.
struct TriggerKey {
  size_t rule_index;
  Tuple image;

  friend bool operator==(const TriggerKey& a, const TriggerKey& b) {
    return a.rule_index == b.rule_index && a.image == b.image;
  }
};

struct TriggerKeyHash {
  size_t operator()(const TriggerKey& k) const {
    size_t h = TupleHash()(k.image);
    return h ^ (k.rule_index * 0x9e3779b97f4a7c15ULL);
  }
};

/// The MatchOptions every pass of a chase under `options` starts from
/// (the chase adds each pass's windows): the join knobs, and the
/// deadline, which only the matcher polls.
MatchOptions PassOptions(const ChaseOptions& options) {
  MatchOptions mo;
  mo.greedy_atom_order = options.greedy_atom_order;
  mo.join_strategy = options.join_strategy;
  mo.deadline = options.deadline;
  return mo;
}

class ChaseRun {
 public:
  ChaseRun(const Program& program, Instance* instance,
           const ChaseOptions& options, ChaseStats* stats,
           const SaturatedSizes* resume = nullptr)
      : program_(program),
        instance_(instance),
        options_(options),
        stats_(stats),
        resume_(resume) {}

  Status Run() {
    total_facts_ = instance_->TotalFacts();
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<common::ThreadPool>(options_.num_threads - 1);
    }
    TRIQ_ASSIGN_OR_RETURN(Stratification strat,
                          datalog::Stratify(program_.WithoutConstraints()));
    for (int s = 0; s < strat.num_strata; ++s) {
      std::vector<size_t> rule_indices = strat.RulesInStratum(program_, s);
      if (rule_indices.empty()) continue;
      if (stats_ != nullptr) ++stats_->strata;
      TRIQ_RETURN_IF_ERROR(SaturateStratum(rule_indices));
    }
    return CheckConstraints();
  }

 private:
  using SizeSnapshot = std::unordered_map<PredicateId, size_t>;

  /// Exclusive end offsets of one staged match in the flat general-path
  /// buffers (homomorphism entries + matched body facts).
  struct StagedEnd {
    uint32_t entries;
    uint32_t facts;
  };

  /// Sharding thresholds: a pass fans out only when its driver has at
  /// least two shards of kMinDriverPerShard tuples;
  /// kShardsPerThread-fold oversubscription lets the pool's shared
  /// counter rebalance shards whose join fan-out is skewed.
  static constexpr size_t kMinDriverPerShard = 64;
  static constexpr size_t kShardsPerThread = 4;

  // Fills `mo.atom_end` with the old/delta/all windows for the pass
  // whose delta atom is body index `delta`: atoms before it read
  // [0, prev), atoms after it read [0, cur). `delta < 0` (round 0) caps
  // every positive atom at `cur` so facts derived this round surface
  // only in the next round's delta window.
  void FillAtomEnds(const Rule& rule, int delta, const SizeSnapshot& prev,
                    const SizeSnapshot& cur, MatchOptions* mo) const {
    mo->atom_end.assign(rule.body.size(), kNoTupleLimit);
    for (size_t j = 0; j < rule.body.size(); ++j) {
      const Atom& atom = rule.body[j];
      if (atom.negated) continue;  // lower stratum: static this stratum
      if (static_cast<int>(j) == delta) continue;
      const SizeSnapshot& cap =
          delta >= 0 && static_cast<int>(j) < delta ? prev : cur;
      mo->atom_end[j] = ValueOr(cap, atom.predicate, 0);
    }
  }

  Status SaturateStratum(const std::vector<size_t>& rule_indices) {
    SizeSnapshot prev_start;
    bool changed;
    if (resume_ != nullptr && options_.seminaive) {
      // Incremental resume: the saturated prefix plays the role of the
      // previous round's snapshot, so the first semi-naive round's
      // deltas are exactly the facts appended since the prior fixpoint
      // (plus anything lower strata derived during this resume).
      // Matches entirely inside the prefix are never re-enumerated.
      prev_start = Snapshot();
      for (auto& [pred, size] : prev_start) {
        size = std::min(size, ValueOr(*resume_, pred, 0));
      }
      changed = true;
    } else {
      // Round 0: full evaluation of every rule. Semi-naive runs cap
      // every atom at the round-start sizes so round 0 enumerates each
      // database match exactly once; anything derived here is picked up
      // as round 1's delta.
      prev_start = Snapshot();
      size_t before = instance_->TotalFacts();
      for (size_t r : rule_indices) {
        MatchOptions mo = PassOptions(options_);
        if (options_.seminaive) {
          FillAtomEnds(program_.rules()[r], /*delta=*/-1, prev_start,
                       prev_start, &mo);
        }
        TRIQ_RETURN_IF_ERROR(ApplyRule(r, mo));
      }
      if (stats_ != nullptr) ++stats_->rounds;
      changed = instance_->TotalFacts() != before;
    }

    while (changed) {
      // Fault-injection point for crash/durability tests: an abort
      // between rounds must surface as an error so the caller (the
      // Engine) publishes nothing and the prior snapshot keeps serving.
      TRIQ_FAILPOINT_RETURN(
          "chase.round.abort",
          Status::Internal("failpoint chase.round.abort: aborted mid-chase"));
      SizeSnapshot cur_start = Snapshot();
      size_t round_before = instance_->TotalFacts();
      for (size_t r : rule_indices) {
        const Rule& rule = program_.rules()[r];
        if (options_.seminaive) {
          // One pass per positive body atom whose predicate gained facts
          // in the previous round, restricted to those delta facts.
          for (size_t b = 0; b < rule.body.size(); ++b) {
            const Atom& atom = rule.body[b];
            if (atom.negated) continue;
            size_t begin = ValueOr(prev_start, atom.predicate, 0);
            size_t end = ValueOr(cur_start, atom.predicate, 0);
            if (begin >= end) continue;  // no new facts for this atom
            MatchOptions mo = PassOptions(options_);
            mo.delta_body_index = static_cast<int>(b);
            mo.delta_begin = begin;
            mo.delta_end = end;
            FillAtomEnds(rule, static_cast<int>(b), prev_start, cur_start,
                         &mo);
            TRIQ_RETURN_IF_ERROR(ApplyRule(r, mo));
          }
        } else {
          TRIQ_RETURN_IF_ERROR(ApplyRule(r, PassOptions(options_)));
        }
      }
      if (stats_ != nullptr) ++stats_->rounds;
      changed = instance_->TotalFacts() != round_before;
      prev_start = std::move(cur_start);
    }
    return Status::OK();
  }

  // Includes the overlay base's relations: round-0 partitioned atom
  // windows must cover the base facts, not cap them at zero.
  SizeSnapshot Snapshot() const { return instance_->RelationSizes(); }

  static size_t ValueOr(const SizeSnapshot& map, PredicateId key,
                        size_t fallback) {
    auto it = map.find(key);
    return it == map.end() ? fallback : it->second;
  }

  /// One rule pass: plans the join once (JoinPass), picks the shard
  /// count, stages every shard's matches (see StageMatch), then commits
  /// them in shard order. Each shard runs one contiguous slice of the
  /// pass's driver; with a pool, a driver of at least two shards' worth
  /// of tuples is split, and the slices run concurrently over the one
  /// plan, while any other pass runs as one slice on this thread. The
  /// slice streams concatenate to the whole pass's (the JoinPass sharding
  /// contract) and commits replay on this thread, so the result is
  /// bit-identical at every thread count.
  Status ApplyRule(size_t rule_index, const MatchOptions& match_options) {
    const Rule& rule = program_.rules()[rule_index];
    if (rule.IsConstraint()) return Status::OK();
    std::vector<Term> existentials = rule.ExistentialVariables();

    // Materialize the matches before firing: a rule may write into a
    // relation its own body reads (e.g. the triple -> triple rules of
    // Section 2), and inserting during the index scan would invalidate
    // the matcher's column and permutation views.
    JoinPass pass(rule, *instance_, match_options);
    const size_t driver = pass.DriverSize();
    size_t num_shards = 1;
    if (pool_ != nullptr) {
      size_t max_shards = (pool_->num_workers() + 1) * kShardsPerThread;
      num_shards = std::max<size_t>(
          1, std::min(max_shards, driver / kMinDriverPerShard));
    }
    const bool sharded = num_shards > 1;

    const bool fast = existentials.empty() && !options_.track_provenance;
    // Sharded single-head fast rules take the fully parallel commit:
    // workers precompute dedup hashes and BatchInserter runs the probe
    // phases across the pool.
    const bool batch = sharded && fast && rule.head.size() == 1;
    const int hash_arity =
        batch ? static_cast<int>(rule.head[0].args.size()) : -1;
    // The stage pool persists across passes (reset, not reconstructed)
    // so staging keeps its buffer capacity.
    if (stages_.size() < num_shards) stages_.resize(num_shards);
    auto stage_shard = [&](size_t s) {
      ShardStage& stage = stages_[s];
      ResetStage(&stage);
      auto stage_match = [&](const Match& match) {
        StageMatch(rule, match, fast, hash_arity, &stage);
        return true;
      };
      stage.status = pass.RunSlice(driver * s / num_shards,
                                   driver * (s + 1) / num_shards, stage_match);
    };
    if (sharded) {
      pool_->ParallelFor(num_shards, stage_shard);
    } else {
      stage_shard(0);
    }
    // The pool may be longer than this pass's shard count: only the
    // first num_shards entries were reset and filled.
    size_t staged_matches = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      TRIQ_RETURN_IF_ERROR(stages_[s].status);
      staged_matches += stages_[s].matches;
    }
    if (sharded && stats_ != nullptr) ++stats_->sharded_passes;
    if (fast && stats_ != nullptr) stats_->rule_firings += staged_matches;

    // Deterministic commit, shard order = single-threaded order. A pass
    // that staged nothing skips the batch commit, which would create the
    // head relation where a one-thread drain leaves it absent.
    if (batch && staged_matches > 0 &&
        total_facts_ + staged_matches <= options_.max_facts) {
      return CommitBatch(rule.head[0], static_cast<uint32_t>(hash_arity),
                         num_shards);
    }
    for (size_t s = 0; s < num_shards; ++s) {
      const ShardStage& stage = stages_[s];
      TRIQ_RETURN_IF_ERROR(
          fast ? DrainFastTuples(rule, stage.tuples.data(), stage.matches)
               : DrainStagedMatches(rule_index, rule, existentials,
                                    stage.entries, stage.facts, stage.ends));
    }
    return Status::OK();
  }

  /// One staging buffer set: everything a match produces is appended
  /// here and committed after the pass. Each shard fills its own
  /// thread-locally; an unsharded pass uses the first.
  struct ShardStage {
    Status status = Status::OK();
    size_t matches = 0;
    std::vector<Term> tuples;  // fast path: materialized head tuples
    // Batch path (single-head fast rules): per-tuple dedup hashes,
    // precomputed off the commit thread.
    std::vector<uint32_t> hashes;
    // General path: flat homomorphism + matched-fact staging.
    std::vector<std::pair<Term, Term>> entries;
    std::vector<FactRef> facts;
    std::vector<StagedEnd> ends;
  };

  static void ResetStage(ShardStage* stage) {
    stage->status = Status::OK();
    stage->matches = 0;
    stage->tuples.clear();
    stage->hashes.clear();
    stage->entries.clear();
    stage->facts.clear();
    stage->ends.clear();
  }

  /// Appends one match's staging to `stage`. Fast path (plain Datalog,
  /// no provenance): the materialized head tuples themselves —
  /// head-arity terms per match, applied while the binding is hot —
  /// plus their dedup hashes when `hash_arity` >= 0 (the batch-commit
  /// path). General path: the full homomorphism and the matched body
  /// facts in flat buffers, one offset record per match.
  static void StageMatch(const Rule& rule, const Match& match, bool fast,
                         int hash_arity, ShardStage* stage) {
    ++stage->matches;
    if (fast) {
      for (const Atom& head : rule.head) {
        for (Term t : head.args) {
          stage->tuples.push_back(match.binding->Apply(t));
        }
      }
      if (hash_arity >= 0) {
        stage->hashes.push_back(Relation::Hash32(
            stage->tuples.data() + stage->tuples.size() - hash_arity,
            static_cast<uint32_t>(hash_arity)));
      }
    } else {
      stage->entries.insert(stage->entries.end(),
                            match.binding->entries().begin(),
                            match.binding->entries().end());
      stage->facts.insert(stage->facts.end(),
                          match.positive_facts->begin(),
                          match.positive_facts->end());
      stage->ends.push_back({static_cast<uint32_t>(stage->entries.size()),
                             static_cast<uint32_t>(stage->facts.size())});
    }
  }

  /// Parallel merge-commit of a single-head pass's staged tuples: the
  /// hash-partitioned dedup probes fan out over the pool; the ordered
  /// append (which fixes the tuple indexes to exactly the sequential
  /// ones, and the claimed slots with them) stays on this thread. Only
  /// called when even an all-new batch cannot exceed max_facts, so the
  /// cap needs no per-tuple check.
  Status CommitBatch(const Atom& head, uint32_t head_arity,
                     size_t num_shards) {
    Relation& rel = instance_->GetOrCreate(head.predicate, head_arity);
    if (rel.arity() != head_arity) {
      return Status::InvalidArgument(
          "fact for predicate " + instance_->dict().Text(head.predicate) +
          " has width " + std::to_string(head_arity) +
          " but its relation has arity " + std::to_string(rel.arity()));
    }
    BatchInserter batch(&rel);
    for (size_t s = 0; s < num_shards; ++s) {
      batch.AddShard(stages_[s].tuples.data(), stages_[s].hashes.data(),
                     static_cast<uint32_t>(stages_[s].matches));
    }
    // The pool also covers the rehash at capacity doublings: Prepare
    // hands it to Relation::GrowSlots, which counting-sorts the live
    // tuple indexes by dedup partition and reinserts the 16 disjoint
    // slot regions in parallel (bit-identical layout to sequential).
    batch.Prepare(pool_.get());
    pool_->ParallelFor(Relation::kDedupPartitions,
                       [&](size_t p) { batch.ScanPartition(p); });
    uint32_t winners = batch.CommitWinners();
    total_facts_ += winners;
    if (stats_ != nullptr) stats_->facts_derived += winners;
    return Status::OK();
  }

  /// Inserts `matches` staged head-tuple groups laid out back-to-back
  /// at `next` (the fast-path commit).
  Status DrainFastTuples(const Rule& rule, const Term* next,
                         size_t matches) {
    for (size_t m = 0; m < matches; ++m) {
      for (const Atom& head : rule.head) {
        uint32_t arity = static_cast<uint32_t>(head.args.size());
        TRIQ_ASSIGN_OR_RETURN(
            bool inserted,
            instance_->AddFactChecked(head.predicate,
                                      TupleView(next, arity)));
        next += arity;
        if (inserted) {
          ++total_facts_;
          if (stats_ != nullptr) ++stats_->facts_derived;
        }
      }
      if (total_facts_ > options_.max_facts) {
        return Status::ResourceExhausted(
            "chase exceeded max_facts = " +
            std::to_string(options_.max_facts));
      }
    }
    return Status::OK();
  }

  /// Fires every staged match of the general path in staging order (the
  /// general-path commit).
  Status DrainStagedMatches(size_t rule_index, const Rule& rule,
                            const std::vector<Term>& existentials,
                            const std::vector<std::pair<Term, Term>>& entries,
                            const std::vector<FactRef>& facts,
                            const std::vector<StagedEnd>& ends) {
    size_t entry_begin = 0;
    size_t fact_begin = 0;
    for (const StagedEnd& staged : ends) {
      scratch_binding_.Assign(entries.data() + entry_begin,
                              staged.entries - entry_begin);
      TRIQ_RETURN_IF_ERROR(Fire(rule_index, rule, existentials,
                                scratch_binding_, facts.data() + fact_begin,
                                staged.facts - fact_begin));
      entry_begin = staged.entries;
      fact_begin = staged.facts;
    }
    return Status::OK();
  }

  Status Fire(size_t rule_index, const Rule& rule,
              const std::vector<Term>& existentials, const Binding& binding,
              const FactRef* positive_facts, size_t num_positive_facts) {
    if (stats_ != nullptr) ++stats_->rule_firings;

    Binding head_binding = binding;
    if (!existentials.empty()) {
      if (options_.mode == ChaseOptions::Mode::kOblivious) {
        if (!RecordTrigger(rule_index, rule, binding)) {
          return Status::OK();  // already fired for this homomorphism
        }
      } else {
        // Restricted chase: skip if some extension of the frontier
        // already satisfies the whole head.
        Binding frontier;
        for (Term v : rule.FrontierVariables()) {
          frontier.Bind(v, binding.Lookup(v));
        }
        if (HasMatch(rule.head, *instance_, frontier)) return Status::OK();
      }
      // Null-depth cap: a fresh null is one level deeper than the
      // deepest null among the matched body terms.
      uint32_t depth = 0;
      for (const auto& [var, val] : binding.entries()) {
        if (val.IsNull()) {
          depth = std::max(depth, instance_->NullDepth(val));
        }
      }
      if (depth + 1 > options_.max_null_depth) {
        if (stats_ != nullptr) stats_->truncated = true;
        return Status::OK();
      }
      for (Term v : existentials) {
        head_binding.Bind(v, instance_->AllocateNull(depth + 1));
        if (stats_ != nullptr) ++stats_->nulls_created;
      }
    }

    for (const Atom& head : rule.head) {
      scratch_tuple_.clear();
      for (Term t : head.args) scratch_tuple_.push_back(head_binding.Apply(t));
      FactRef ref;
      TRIQ_ASSIGN_OR_RETURN(
          bool inserted,
          instance_->AddFactChecked(head.predicate, scratch_tuple_, &ref));
      if (inserted) {
        ++total_facts_;
        if (stats_ != nullptr) ++stats_->facts_derived;
        if (options_.track_provenance) {
          instance_->RecordDerivation(
              ref, Derivation{rule_index,
                              std::vector<FactRef>(
                                  positive_facts,
                                  positive_facts + num_positive_facts)});
        }
      }
    }
    if (total_facts_ > options_.max_facts) {
      return Status::ResourceExhausted(
          "chase exceeded max_facts = " + std::to_string(options_.max_facts));
    }
    return Status::OK();
  }

  bool RecordTrigger(size_t rule_index, const Rule& rule,
                     const Binding& binding) {
    TriggerKey key;
    key.rule_index = rule_index;
    std::vector<Term> body_vars = rule.BodyVariables();
    key.image.reserve(body_vars.size());
    for (Term v : body_vars) key.image.push_back(binding.Lookup(v));
    return fired_.insert(std::move(key)).second;
  }

  Status CheckConstraints() {
    for (const Rule& rule : program_.rules()) {
      if (!rule.IsConstraint()) continue;
      bool violated = false;
      TRIQ_RETURN_IF_ERROR(
          MatchBody(rule, *instance_, MatchOptions{}, [&](const Match&) {
            violated = true;
            return false;
          }));
      if (violated) {
        return Status::Inconsistent(
            "constraint violated: " + RuleToString(rule, program_.dict()));
      }
    }
    return Status::OK();
  }

  const Program& program_;
  Instance* instance_;
  const ChaseOptions& options_;
  ChaseStats* stats_;
  // Saturated-prefix sizes for ResumeChase; null for a from-scratch run.
  const SaturatedSizes* resume_;
  size_t total_facts_ = 0;  // running TotalFacts(), kept by Fire
  // Workers for the sharded executor; null when num_threads <= 1.
  std::unique_ptr<common::ThreadPool> pool_;
  std::unordered_set<TriggerKey, TriggerKeyHash> fired_;

  // Per-shard staging (an unsharded pass uses the first); a member so
  // buffer capacity persists across passes.
  std::vector<ShardStage> stages_;
  Binding scratch_binding_;
  Tuple scratch_tuple_;
};

}  // namespace

Status ValidateChaseOptions(const ChaseOptions& options) {
  if (options.num_threads < 1) {
    return Status::InvalidArgument(
        "ChaseOptions::num_threads must be >= 1 (the calling thread "
        "always participates)");
  }
  if (options.num_threads > common::kMaxThreads) {
    return Status::InvalidArgument(
        "ChaseOptions::num_threads must be <= " +
        std::to_string(common::kMaxThreads));
  }
  if (options.max_facts == 0) {
    return Status::InvalidArgument(
        "ChaseOptions::max_facts must be non-zero");
  }
  if (options.max_null_depth == 0) {
    return Status::InvalidArgument(
        "ChaseOptions::max_null_depth must be non-zero");
  }
  if (options.mode != ChaseOptions::Mode::kRestricted &&
      options.mode != ChaseOptions::Mode::kOblivious) {
    return Status::InvalidArgument(
        "ChaseOptions::mode holds no declared enumerator");
  }
  if (options.join_strategy != JoinStrategy::kAuto &&
      options.join_strategy != JoinStrategy::kHash &&
      options.join_strategy != JoinStrategy::kMerge &&
      options.join_strategy != JoinStrategy::kLeapfrog) {
    return Status::InvalidArgument(
        "ChaseOptions::join_strategy holds no declared enumerator");
  }
  return Status::OK();
}

Status RunChase(const datalog::Program& program, Instance* instance,
                const ChaseOptions& options, ChaseStats* stats) {
  TRIQ_RETURN_IF_ERROR(ValidateChaseOptions(options));
  return ChaseRun(program, instance, options, stats).Run();
}

Status ResumeChase(const datalog::Program& program, Instance* instance,
                   const SaturatedSizes& saturated,
                   const ChaseOptions& options, ChaseStats* stats) {
  TRIQ_RETURN_IF_ERROR(ValidateChaseOptions(options));
  return ChaseRun(program, instance, options, stats, &saturated).Run();
}

std::vector<Tuple> ConstantTuples(const Relation* relation) {
  std::vector<Tuple> out;
  if (relation == nullptr) return out;
  for (TupleView tuple : relation->tuples()) {
    if (std::all_of(tuple.begin(), tuple.end(),
                    [](Term t) { return t.IsConstant(); })) {
      out.push_back(tuple.ToTuple());
    }
  }
  return out;
}

std::string ExplainProgramPlans(const datalog::Program& program,
                                const Instance& instance,
                                const ChaseOptions& options) {
  MatchOptions mo = PassOptions(options);
  std::string out;
  size_t i = 0;
  for (const Rule& rule : program.rules()) {
    out += "rule " + std::to_string(i++) + ": " +
           datalog::RuleToString(rule, instance.dict()) + "\n";
    out += ExplainMatchPlan(rule, instance, mo);
    out += "\n";
  }
  return out;
}

}  // namespace triq::chase
