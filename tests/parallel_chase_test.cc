// The parallel sharded chase executor.
//
// The determinism contract (chase.h): for every num_threads, the chase
// produces a bit-identical instance — same tuples at the same tuple
// indexes, same null identities — and identical stats. These tests pin
// that down with storage-order fingerprints across an equivalence sweep
// (naive vs. seminaive × threads ∈ {1, 2, 4, 8}); at the matcher level
// through the JoinPass sharding contract (slices of one planned pass's
// driver, run one after another or concurrently on a pool,
// concatenate to the whole pass's match stream, for merge, posting and
// leapfrog plans); on the degenerate shard shapes (empty delta, single
// tuple, too small to shard); and for the thread pool itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "common/thread_pool.h"
#include "core/workloads.h"
#include "datalog/parser.h"

namespace triq {
namespace {

using chase::ChaseOptions;
using chase::ChaseStats;
using chase::Instance;

/// Renders the instance in STORAGE order (predicate id, then tuple
/// index) — unlike Instance::ToString, which sorts and so would hide
/// tuple-order divergence between runs. Equal fingerprints mean the
/// runs committed identical facts in the identical order.
std::string StorageFingerprint(const Instance& instance) {
  std::set<datalog::PredicateId> predicates;
  for (const auto& [pred, rel] : instance.relations()) predicates.insert(pred);
  std::string out;
  for (datalog::PredicateId pred : predicates) {
    const chase::Relation* rel = instance.Find(pred);
    out += instance.dict().Text(pred) + ":";
    for (chase::TupleView tuple : rel->tuples()) {
      out += " (";
      for (chase::Term t : tuple) out += datalog::TermToString(t, instance.dict()) + ",";
      out += ")";
    }
    out += "\n";
  }
  return out;
}

struct RunOutcome {
  std::string fingerprint;
  ChaseStats stats;
};

RunOutcome RunWith(const datalog::Program& program, const Instance& db,
                   ChaseOptions options) {
  Instance work = db.CloneFacts();
  ChaseStats stats;
  Status status = RunChase(program, &work, options, &stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return {StorageFingerprint(work), stats};
}

/// Asserts the full sweep: for each evaluation mode, every thread count
/// yields the t=1 outcome bit-identically (fingerprint + every stat);
/// across modes, the sorted instance contents agree.
void CheckEquivalenceSweep(const datalog::Program& program,
                           const Instance& db) {
  struct Mode {
    const char* name;
    bool seminaive;
  };
  const Mode kModes[] = {{"naive", false}, {"seminaive", true}};
  std::string content_across_modes;
  for (const Mode& mode : kModes) {
    ChaseOptions base;
    base.seminaive = mode.seminaive;
    RunOutcome reference = RunWith(program, db, base);
    for (size_t threads : {2, 4, 8}) {
      ChaseOptions options = base;
      options.num_threads = threads;
      RunOutcome outcome = RunWith(program, db, options);
      EXPECT_EQ(outcome.fingerprint, reference.fingerprint)
          << mode.name << " with " << threads
          << " threads committed different facts or a different order";
      EXPECT_EQ(outcome.stats.rounds, reference.stats.rounds)
          << mode.name << "/" << threads;
      EXPECT_EQ(outcome.stats.rule_firings, reference.stats.rule_firings)
          << mode.name << "/" << threads;
      EXPECT_EQ(outcome.stats.facts_derived, reference.stats.facts_derived)
          << mode.name << "/" << threads;
      EXPECT_EQ(outcome.stats.nulls_created, reference.stats.nulls_created)
          << mode.name << "/" << threads;
    }
    // Across modes the derivation order differs legitimately; the
    // sorted content may not.
    Instance work = db.CloneFacts();
    EXPECT_TRUE(RunChase(program, &work, base).ok());
    if (content_across_modes.empty()) {
      content_across_modes = work.ToString();
    } else {
      EXPECT_EQ(work.ToString(), content_across_modes) << mode.name;
    }
  }
}

TEST(ParallelChaseTest, TransitiveClosureSweep) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db = core::ChainDatabase(96, dict);
  CheckEquivalenceSweep(program, db);

  // Depth-0 delta atoms that bind a constant scan their delta window
  // instead of probing postings. The doubling tc rule's rounds are large
  // enough to shard the `tc(?X, v32)` pass, and the recursive `upto`
  // rule's delta atom binds v16 itself.
  auto bound = datalog::ParseProgram(
      "edge(?X, ?Y) -> tc(?X, ?Y) .\n"
      "tc(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .\n"
      "tc(?X, v32) -> into(?X) .\n"
      "edge(?X, v16) -> upto(?X, v16) .\n"
      "upto(?Y, v16), edge(?X, ?Y) -> upto(?X, v16) .\n",
      dict);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  CheckEquivalenceSweep(*bound, core::ChainDatabase(32, dict));
}

TEST(ParallelChaseTest, RepeatedPredicatesAndNegationSweep) {
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 200; ++i) {
    db.AddFact("e", {"n" + std::to_string(i), "n" + std::to_string(i + 1)});
    if (i % 3 == 0) db.AddFact("blocked", {"n" + std::to_string(i)});
  }
  auto program = datalog::ParseProgram(
      "e(?X, ?Y) -> tc(?X, ?Y) .\n"
      "tc(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .\n"
      "tc(?X, ?Y), not blocked(?X) -> open(?X, ?Y) .\n",
      dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  CheckEquivalenceSweep(*program, db);

  // A self-join with no matches over disjoint edges: the sharded pass
  // stages nothing and must leave `two` absent, as one thread does.
  Instance disjoint(dict);
  for (int i = 0; i < 400; ++i) {
    disjoint.AddFact("e", {"s" + std::to_string(i), "d" + std::to_string(i)});
  }
  auto no_matches =
      datalog::ParseProgram("e(?X, ?Y), e(?Y, ?Z) -> two(?X, ?Z) .\n", dict);
  ASSERT_TRUE(no_matches.ok()) << no_matches.status().ToString();
  CheckEquivalenceSweep(*no_matches, disjoint);
}

TEST(ParallelChaseTest, ExistentialRulesKeepNullIdentity) {
  // Existential rules allocate labeled nulls during the commit replay;
  // bit-identical fingerprints prove null ids are assigned in the same
  // order for every thread count.
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 300; ++i) {
    db.AddFact("person", {"p" + std::to_string(i)});
  }
  auto program = datalog::ParseProgram(
      "person(?X) -> exists ?Y parent(?X, ?Y), person(?Y) .\n", dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ChaseOptions base;
  base.max_null_depth = 3;
  RunOutcome reference = RunWith(*program, db, base);
  EXPECT_GT(reference.stats.nulls_created, 0u);
  for (size_t threads : {2, 4, 8}) {
    ChaseOptions options = base;
    options.num_threads = threads;
    RunOutcome outcome = RunWith(*program, db, options);
    EXPECT_EQ(outcome.fingerprint, reference.fingerprint) << threads;
    EXPECT_EQ(outcome.stats.nulls_created, reference.stats.nulls_created);
    EXPECT_EQ(outcome.stats.rule_firings, reference.stats.rule_firings);
  }
}

TEST(ParallelChaseTest, RandomGraphStrategyAndThreadSweep) {
  // Dense random digraph: most tc facts derive many times over (and
  // repeatedly within one pass), stressing the batch-commit's
  // staged-vs-staged dedup; sweep join strategies × thread counts.
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  uint64_t x = 99;
  for (int i = 0; i < 400; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    db.AddFact("e", {"n" + std::to_string(x % 60),
                     "n" + std::to_string((x >> 17) % 60)});
  }
  auto program = datalog::ParseProgram(
      "e(?X, ?Y) -> tc(?X, ?Y) .\n"
      "tc(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .\n",
      dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (auto strategy : {chase::JoinStrategy::kAuto, chase::JoinStrategy::kHash,
                        chase::JoinStrategy::kMerge}) {
    ChaseOptions base;
    base.join_strategy = strategy;
    RunOutcome reference = RunWith(*program, db, base);
    EXPECT_GT(reference.stats.rule_firings, reference.stats.facts_derived)
        << "workload must re-derive facts to stress the dedup";
    for (size_t threads : {2, 8}) {
      ChaseOptions options = base;
      options.num_threads = threads;
      RunOutcome outcome = RunWith(*program, db, options);
      EXPECT_EQ(outcome.fingerprint, reference.fingerprint)
          << "strategy " << static_cast<int>(strategy) << ", " << threads
          << " threads";
      EXPECT_EQ(outcome.stats.rule_firings, reference.stats.rule_firings);
      EXPECT_EQ(outcome.stats.facts_derived, reference.stats.facts_derived);
    }
  }
}

TEST(ParallelChaseTest, ParallelRehashMatchesSequentialInserts) {
  // Drives Relation's partition-parallel rehash and the two-phase batch
  // commit directly: a relation already holding 40k tuples (above the
  // 32k parallel-rehash threshold) takes a batch whose staged influx
  // overloads the dedup table, so BatchInserter::Prepare doubles it
  // through the pool. The stream is committed as one shard and as three
  // shards cut between in-stream duplicates and their first
  // occurrences. Either way the committed relation must be
  // indistinguishable from plain sequential Insert()s of the same
  // stream: same tuples at the same indexes, and every tuple findable
  // through the rebuilt table.
  using chase::Relation;
  auto term = [](uint32_t v) { return datalog::Term::Constant(v); };
  Relation ref(2);
  for (uint32_t i = 0; i < 40000; ++i) {
    ref.Insert(chase::Tuple{term(i % 9000), term(i)});
  }
  ASSERT_EQ(ref.size(), 40000u);

  // Staged stream: fresh tuples, repeats of stored tuples, in-stream
  // duplicates — row-major with precomputed Hash32, as the sharded
  // chase commit stages them.
  std::vector<chase::Term> flat;
  // (first occurrence, repeat) stream positions of in-stream duplicates.
  std::vector<std::pair<uint32_t, uint32_t>> repeats;
  auto stage = [&](uint32_t a, uint32_t b) {
    flat.push_back(term(a));
    flat.push_back(term(b));
    return static_cast<uint32_t>(flat.size() / 2 - 1);
  };
  for (uint32_t i = 0; i < 20000; ++i) {
    uint32_t first = stage(i % 9000, 40000 + i);  // fresh
    if (i % 5 == 0) stage(i % 9000, i);           // already stored
    if (i % 7 == 0) {
      repeats.emplace_back(first, stage(i % 9000, 40000 + i));  // duplicate
    }
  }
  uint32_t n = static_cast<uint32_t>(flat.size() / 2);
  std::vector<uint32_t> hashes(n);
  for (uint32_t j = 0; j < n; ++j) {
    hashes[j] = Relation::Hash32(flat.data() + 2 * j, 2);
  }
  for (uint32_t j = 0; j < n; ++j) {
    ref.Insert(chase::Tuple{flat[2 * j], flat[2 * j + 1]});
  }
  ASSERT_EQ(ref.size(), 60000u);

  // Shard cuts: none, or right before two in-stream repeats, so each
  // repeat's first occurrence lies in the shard before it.
  const uint32_t cut1 = repeats[repeats.size() / 3].second;
  const uint32_t cut2 = repeats[2 * repeats.size() / 3].second;
  ASSERT_LT(repeats[repeats.size() / 3].first, cut1);
  ASSERT_LT(repeats[2 * repeats.size() / 3].first, cut2);
  const std::vector<std::vector<uint32_t>> splits = {{0, n},
                                                     {0, cut1, cut2, n}};
  common::ThreadPool pool(3);
  for (const std::vector<uint32_t>& bounds : splits) {
    SCOPED_TRACE(std::to_string(bounds.size() - 1) + " shard(s)");
    Relation rel(2);
    for (uint32_t i = 0; i < 40000; ++i) {
      rel.Insert(chase::Tuple{term(i % 9000), term(i)});
    }
    chase::BatchInserter batch(&rel);
    for (size_t s = 0; s + 1 < bounds.size(); ++s) {
      batch.AddShard(flat.data() + 2 * size_t{bounds[s]},
                     hashes.data() + bounds[s], bounds[s + 1] - bounds[s]);
    }
    batch.Prepare(&pool);
    pool.ParallelFor(Relation::kDedupPartitions,
                     [&](size_t p) { batch.ScanPartition(p); });
    EXPECT_EQ(batch.CommitWinners(), 20000u);

    ASSERT_EQ(rel.size(), ref.size());
    for (uint32_t i = 0; i < rel.size(); ++i) {
      ASSERT_EQ(rel.tuple(i), ref.tuple(i)) << i;
      ASSERT_EQ(rel.FindIndex(ref.tuple(i)), i) << i;
    }
  }
}

TEST(ParallelChaseTest, LargeRunActuallyShards) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db = core::ChainDatabase(256, dict);
  ChaseOptions options;
  options.num_threads = 4;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &work, options, &stats).ok());
  EXPECT_GT(stats.sharded_passes, 0u)
      << "a 256-node closure never cleared the sharding threshold";
}

// ---- degenerate shard shapes -----------------------------------------

TEST(ParallelChaseTest, EmptyDatabaseAndEmptyDeltas) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db(dict);  // no edge facts at all
  ChaseOptions options;
  options.num_threads = 4;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &work, options, &stats).ok());
  EXPECT_EQ(stats.facts_derived, 0u);
  EXPECT_EQ(stats.sharded_passes, 0u);
}

TEST(ParallelChaseTest, SingleTupleWindowFallsBackToSequential) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db = core::ChainDatabase(1, dict);
  ChaseOptions options;
  options.num_threads = 8;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &work, options, &stats).ok());
  EXPECT_EQ(stats.sharded_passes, 0u);  // one tuple: below the threshold
  Instance reference = db.CloneFacts();
  ASSERT_TRUE(RunChase(program, &reference, ChaseOptions{}).ok());
  EXPECT_EQ(StorageFingerprint(work), StorageFingerprint(reference));
}

TEST(ParallelChaseTest, WindowSmallerThanTwoShardsStaysSequential) {
  // 100 edges -> round-0 window of 100 tuples: one kMinDriverPerShard=64
  // shard only, so the scheduler must fall back (all-one-shard shape).
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 100; ++i) {
    db.AddFact("color", {"c" + std::to_string(i % 7)});
  }
  auto program =
      datalog::ParseProgram("color(?X) -> seen(?X) .\n", dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ChaseOptions options;
  options.num_threads = 4;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(*program, &work, options, &stats).ok());
  EXPECT_EQ(stats.sharded_passes, 0u);
  EXPECT_EQ(work.Find("seen")->size(), 7u);
}

// ---- the JoinPass sharding contract at the matcher level -------------

/// Renders one match's homomorphism; streams of these are compared
/// order-sensitively.
std::string MatchLine(const chase::Match& match, const Instance& db) {
  std::string line;
  for (const auto& [var, val] : match.binding->entries()) {
    line += datalog::TermToString(var, db.dict()) + "=" +
            datalog::TermToString(val, db.dict()) + " ";
  }
  return line;
}

/// Collects the match stream of one whole MatchBody pass.
std::vector<std::string> MatchStream(const datalog::Rule& rule,
                                     const Instance& db,
                                     const chase::MatchOptions& options) {
  std::vector<std::string> out;
  Status status =
      MatchBody(rule, db, options, [&](const chase::Match& match) {
        out.push_back(MatchLine(match, db));
        return true;
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

/// Collects the match stream of slice `s` of `num_slices` contiguous
/// slices of the pass's driver.
std::vector<std::string> SliceStream(const chase::JoinPass& pass, size_t s,
                                     size_t num_slices, const Instance& db) {
  const size_t driver = pass.DriverSize();
  std::vector<std::string> out;
  Status status = pass.RunSlice(driver * s / num_slices,
                                driver * (s + 1) / num_slices,
                                [&](const chase::Match& match) {
                                  out.push_back(MatchLine(match, db));
                                  return true;
                                });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

/// Asserts the sharding contract for one planned pass: the slice
/// streams of 1, 2, 3 and 7 contiguous slices of its driver concatenate
/// to the whole pass's stream.
void ExpectSlicesConcatenate(const datalog::Rule& rule, const Instance& db,
                             const chase::MatchOptions& options) {
  std::vector<std::string> unsharded = MatchStream(rule, db, options);
  ASSERT_FALSE(unsharded.empty());
  chase::JoinPass pass(rule, db, options);
  ASSERT_GT(pass.DriverSize(), 0u);
  for (size_t num_slices : {1, 2, 3, 7}) {
    std::vector<std::string> concatenated;
    for (size_t s = 0; s < num_slices; ++s) {
      std::vector<std::string> piece = SliceStream(pass, s, num_slices, db);
      concatenated.insert(concatenated.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(concatenated, unsharded)
        << "strategy " << static_cast<int>(options.join_strategy) << ", "
        << num_slices << " slices";
  }
}

/// A 60-node random digraph holding triangles: the leapfrog residual's
/// workload.
Instance TriangleGraph(const std::shared_ptr<Dictionary>& dict) {
  Instance db(dict);
  uint64_t x = 7;
  for (int i = 0; i < 600; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    db.AddFact("e", {"n" + std::to_string(x % 60),
                     "n" + std::to_string((x >> 17) % 60)});
  }
  return db;
}

TEST(JoinPassTest, ConcatenatedSlicesEqualUnshardedStream) {
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 150; ++i) {
    db.AddFact("e", {"a" + std::to_string(i % 25), "b" + std::to_string(i)});
    db.AddFact("f", {"b" + std::to_string(i), "c" + std::to_string(i % 10)});
  }
  auto rule = datalog::ParseRule("e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)",
                                 dict.get());
  ASSERT_TRUE(rule.ok());
  for (auto strategy : {chase::JoinStrategy::kAuto, chase::JoinStrategy::kHash,
                        chase::JoinStrategy::kMerge}) {
    chase::MatchOptions options;
    options.join_strategy = strategy;
    ExpectSlicesConcatenate(*rule, db, options);
    // A delta window past tuple 0, large enough for kAuto's merge join:
    // the plan sorts just that window, and every slice reads it.
    options.delta_body_index = 0;
    options.delta_begin = 40;
    options.delta_end = 120;
    EXPECT_EQ(chase::ExplainMatchPlan(*rule, db, options).find("merge") !=
                  std::string::npos,
              strategy != chase::JoinStrategy::kHash);
    EXPECT_EQ(chase::JoinPass(*rule, db, options).DriverSize(), 80u);
    ExpectSlicesConcatenate(*rule, db, options);
  }
}

TEST(JoinPassTest, LeapfrogResidualSlicesConcatenate) {
  // A triangle leaves a two-atom residual sharing ?Z, which the driver
  // does not bind: kAuto plans it as a leapfrog triejoin, as kLeapfrog
  // forces. Every slice walks the plan's one set of lex permutations.
  auto dict = std::make_shared<Dictionary>();
  Instance db = TriangleGraph(dict);
  auto rule = datalog::ParseRule(
      "e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> tri(?X, ?Y, ?Z)", dict.get());
  ASSERT_TRUE(rule.ok());
  for (auto strategy :
       {chase::JoinStrategy::kAuto, chase::JoinStrategy::kLeapfrog}) {
    chase::MatchOptions options;
    options.join_strategy = strategy;
    ASSERT_NE(chase::ExplainMatchPlan(*rule, db, options).find("leapfrog"),
              std::string::npos);
    ExpectSlicesConcatenate(*rule, db, options);
  }
}

TEST(JoinPassTest, SlicesOfOnePlanRunConcurrently) {
  // The chase's fan-out: one plan, its slices run at once on a pool,
  // each into its own buffer. Slice streams concatenated in slice order
  // equal the whole pass (ThreadSanitizer builds check the sharing).
  auto dict = std::make_shared<Dictionary>();
  Instance db = TriangleGraph(dict);
  for (const char* text :
       {"e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> tri(?X, ?Y, ?Z)",
        "e(?X, ?Y), e(?Y, ?Z) -> two(?X, ?Z)"}) {
    auto rule = datalog::ParseRule(text, dict.get());
    ASSERT_TRUE(rule.ok());
    chase::MatchOptions options;
    chase::JoinPass pass(*rule, db, options);
    constexpr size_t kSlices = 16;
    std::vector<std::vector<std::string>> pieces(kSlices);
    common::ThreadPool pool(3);
    pool.ParallelFor(kSlices, [&](size_t s) {
      pieces[s] = SliceStream(pass, s, kSlices, db);
    });
    std::vector<std::string> concatenated;
    for (const auto& piece : pieces) {
      concatenated.insert(concatenated.end(), piece.begin(), piece.end());
    }
    std::vector<std::string> unsharded = MatchStream(*rule, db, options);
    ASSERT_FALSE(unsharded.empty()) << text;
    EXPECT_EQ(concatenated, unsharded) << text;
  }
}

TEST(JoinPassTest, BoundPositionPlansAscendingSupersets) {
  // Constants in the depth-0 atom: the pass's driver is the shortest
  // bound posting range (ascending); slices re-check by unification.
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 80; ++i) {
    db.AddFact("t", {"s" + std::to_string(i), i % 2 == 0 ? "e" : "x",
                     "o" + std::to_string(i % 3)});
  }
  chase::MatchOptions options;
  auto rule = datalog::ParseRule("t(?X, e, ?Y) -> hop(?X, ?Y)", dict.get());
  ASSERT_TRUE(rule.ok());
  // The 'e' posting list, not all 80.
  EXPECT_EQ(chase::JoinPass(*rule, db, options).DriverSize(), 40u);
  ExpectSlicesConcatenate(*rule, db, options);

  // Bound at two positions: the driver is the shorter 'o1' range (27
  // tuples), not its intersection with the 'e' range (13 tuples).
  auto two_bound = datalog::ParseRule("t(?X, e, o1) -> hop(?X)", dict.get());
  ASSERT_TRUE(two_bound.ok());
  EXPECT_EQ(chase::JoinPass(*two_bound, db, options).DriverSize(), 27u);
  EXPECT_EQ(MatchStream(*two_bound, db, options).size(), 13u);
  ExpectSlicesConcatenate(*two_bound, db, options);

  // A seed binding the other positions: the driver is the one tuple
  // the dedup lookup finds, so all slices but one are empty.
  chase::Binding seed;
  seed.Bind(rule->body[0].args[0], datalog::Term::Constant(dict->Intern("s4")));
  seed.Bind(rule->body[0].args[2], datalog::Term::Constant(dict->Intern("o1")));
  options.seed = &seed;
  EXPECT_EQ(chase::JoinPass(*rule, db, options).DriverSize(), 1u);
  ExpectSlicesConcatenate(*rule, db, options);
}

// ---- the thread pool -------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  common::ThreadPool pool(3);
  for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolTest, BalancesSkewedWork) {
  // All the real work lands in the first indices; the pool must spread
  // it without dropping or duplicating any index.
  common::ThreadPool pool(4);
  std::atomic<uint64_t> checksum{0};
  const size_t n = 257;
  pool.ParallelFor(n, [&](size_t i) {
    uint64_t burn = 1;
    size_t spins = i < 8 ? 20000 : 10;
    for (size_t k = 0; k < spins; ++k) burn = burn * 31 + k;
    checksum += i + (burn & 1 ? 0 : 0);
  });
  EXPECT_EQ(checksum.load(), static_cast<uint64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  common::ThreadPool pool(0);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  common::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(17, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

}  // namespace
}  // namespace triq
