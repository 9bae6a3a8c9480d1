// The engine's snapshot-isolation contract under concurrency, plus the
// session-hygiene regressions the concurrent server surfaced:
//  * N reader threads evaluating during writer re-materializations must
//    each see a consistent snapshot — the full closure of some chain
//    prefix, never a mix of two closures — with monotone generations.
//  * Dropping a PreparedQuery releases its head-predicate claims.
//  * The SPARQL plan cache is bounded (LRU) with hit/miss/eviction
//    counters, and an evicted plan's program identity is forgotten.
//  * A query-side chase tripping max_facts or the per-query deadline
//    fails with ResourceExhausted and leaves the session usable.
//  * Readers planning cyclic SPARQL patterns on a published snapshot
//    and the writer cloning it do not race on lazily built indexes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "engine/engine.h"

namespace {

using triq::Engine;
using triq::EngineOptions;
using triq::EngineStats;
using triq::StatusCode;

std::string Node(int i) { return "n" + std::to_string(i); }

/// Loads the chain n0 -> n1 -> ... -> n<length> and the transitive
/// closure rules.
void LoadChain(Engine* engine, int length) {
  for (int i = 0; i < length; ++i) {
    ASSERT_TRUE(engine->AddTriple(Node(i), "edge", Node(i + 1)).ok());
  }
  ASSERT_TRUE(engine
                  ->AttachRules(
                      "triple(?X, edge, ?Y) -> tc(?X, ?Y) .\n"
                      "tc(?X, ?Y), triple(?Y, edge, ?Z) -> tc(?X, ?Z) .")
                  .ok());
}

TEST(EngineConcurrencyTest, ReadersSeeConsistentSnapshotsDuringWrites) {
  constexpr int kInitialLength = 8;
  constexpr int kFinalLength = 28;
  constexpr int kReaders = 4;

  Engine engine;
  LoadChain(&engine, kInitialLength);
  ASSERT_TRUE(engine.Materialize().ok());

  // Pre-intern every node symbol so readers can decode without racing
  // the test's own bookkeeping (the engine dictionary itself is
  // thread-safe).
  std::vector<triq::SymbolId> node_ids;
  for (int i = 0; i <= kFinalLength; ++i) {
    node_ids.push_back(engine.dict().Intern(Node(i)));
  }
  auto node_index = [&](triq::SymbolId s) {
    for (size_t i = 0; i < node_ids.size(); ++i) {
      if (node_ids[i] == s) return static_cast<int>(i);
    }
    return -1;
  };

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};

  auto reader = [&]() {
    // Each reader gets its own handle; the empty program reads the tc
    // relation the data program derives, pinning whole snapshots.
    auto query = engine.Prepare("", "tc");
    if (!query.ok()) {
      ++failures;
      return;
    }
    uint64_t last_size = 0;
    // At least one evaluation even if the writer already finished (a
    // loaded machine can delay thread start past the writer's last
    // publish); after that, loop until the writer is done.
    for (bool first = true;
         first || !done.load(std::memory_order_acquire); first = false) {
      auto answers = query->Evaluate();
      if (!answers.ok()) {
        ++failures;
        return;
      }
      // A consistent snapshot holds the COMPLETE closure of the chain
      // n0..nm for some prefix length m: exactly m*(m+1)/2 pairs
      // (ni, nj) with i < j <= m. Anything else is a torn read.
      std::set<std::pair<int, int>> pairs;
      int max_node = 0;
      bool decoded = true;
      for (const triq::chase::Tuple& t : *answers) {
        int a = node_index(t[0].symbol());
        int b = node_index(t[1].symbol());
        if (a < 0 || b < 0 || a >= b) {
          decoded = false;
          break;
        }
        max_node = std::max(max_node, b);
        pairs.emplace(a, b);
      }
      const size_t expected =
          static_cast<size_t>(max_node) * (max_node + 1) / 2;
      if (!decoded || pairs.size() != answers->size() ||
          answers->size() != expected || max_node < kInitialLength) {
        ++failures;
        return;
      }
      // Within one reader, snapshots never go backwards.
      if (answers->size() < last_size) {
        ++failures;
        return;
      }
      last_size = answers->size();
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader);

  // The writer extends the chain one edge at a time, re-materializing
  // after each append; every one is an incremental re-saturation.
  for (int i = kInitialLength; i < kFinalLength; ++i) {
    ASSERT_TRUE(engine.AddTriple(Node(i), "edge", Node(i + 1)).ok());
    ASSERT_TRUE(engine.Materialize().ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(engine.rebuilds(), 1u);
  EXPECT_EQ(engine.materializations(),
            1u + (kFinalLength - kInitialLength));

  // After the dust settles every reader path agrees on the final
  // closure.
  auto final_answers = engine.Answers("tc");
  ASSERT_TRUE(final_answers.ok());
  EXPECT_EQ(final_answers->size(),
            static_cast<size_t>(kFinalLength) * (kFinalLength + 1) / 2);
}

TEST(EngineConcurrencyTest, ConcurrentSparqlSharesOneCachedPlan) {
  Engine engine;
  LoadChain(&engine, 6);
  ASSERT_TRUE(engine.Materialize().ok());

  const std::string query = "{ ?x edge ?y }";
  constexpr int kThreads = 4;
  constexpr int kIterations = 50;
  std::atomic<int> failures{0};

  auto runner = [&]() {
    for (int i = 0; i < kIterations; ++i) {
      auto mappings = engine.Query(query);
      if (!mappings.ok() || mappings->size() != 6u) {
        ++failures;
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) threads.emplace_back(runner);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EngineStats stats = engine.stats();
  // Every call is either a hit or a miss; racing first calls may each
  // count a miss (the losers adopt the winner's entry), but the cache
  // holds exactly one plan at the end.
  EXPECT_EQ(stats.sparql_cache_hits + stats.sparql_cache_misses,
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_GE(stats.sparql_cache_misses, 1u);
  EXPECT_EQ(stats.sparql_cache_size, 1u);
}

TEST(EngineConcurrencyTest, DroppingPreparedQueryReleasesItsClaims) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle("a edge b .").ok());
  {
    auto held = engine.Prepare("triple(?X, edge, ?Y) -> q(?X) .", "q");
    ASSERT_TRUE(held.ok());
    // While the handle lives, a conflicting program may not claim q...
    auto clash = engine.Prepare("triple(?X, edge, ?Y) -> q(?Y) .", "q");
    EXPECT_FALSE(clash.ok());
    EXPECT_EQ(clash.status().code(), StatusCode::kInvalidArgument);
    // ...nor may the data program mention it.
    EXPECT_FALSE(engine.AttachRules("triple(?X, edge, ?Y) -> q(?Y) .").ok());
  }
  // The handle is gone: its claims must be released, so the previously
  // conflicting Prepare, AttachRules, and loads all succeed now.
  auto again = engine.Prepare("triple(?X, edge, ?Y) -> q(?Y) .", "q");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  {
    auto moved = std::move(again);
    // Moving transfers the claim; dropping the moved-from shell must not
    // release it early.
    auto clash = engine.Prepare("triple(?X, edge, ?Y) -> q(?X) .", "q");
    EXPECT_FALSE(clash.ok());
  }
  EXPECT_TRUE(engine.AttachRules("triple(?X, edge, ?Y) -> q(?Y) .").ok());
}

TEST(EngineConcurrencyTest, SparqlCacheEvictsLeastRecentlyUsedPlan) {
  Engine engine(EngineOptions().SetSparqlCacheCapacity(2));
  LoadChain(&engine, 4);

  const std::string q1 = "{ ?x edge ?y }";
  const std::string q2 = "{ n0 edge ?y }";
  const std::string q3 = "{ ?x edge n1 }";

  ASSERT_TRUE(engine.Query(q1).ok());  // miss -> {q1}
  ASSERT_TRUE(engine.Query(q2).ok());  // miss -> {q2, q1}
  ASSERT_TRUE(engine.Query(q1).ok());  // hit  -> {q1, q2}
  ASSERT_TRUE(engine.Query(q3).ok());  // miss -> {q3, q1}, evicts q2
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.sparql_cache_misses, 3u);
  EXPECT_EQ(stats.sparql_cache_hits, 1u);
  EXPECT_EQ(stats.sparql_cache_evictions, 1u);
  EXPECT_EQ(stats.sparql_cache_size, 2u);

  // q2 was evicted: querying it again re-translates (a miss), evicting
  // the now-LRU q1; q3 is still resident (a hit).
  ASSERT_TRUE(engine.Query(q2).ok());
  ASSERT_TRUE(engine.Query(q3).ok());
  stats = engine.stats();
  EXPECT_EQ(stats.sparql_cache_misses, 4u);
  EXPECT_EQ(stats.sparql_cache_hits, 2u);
  EXPECT_EQ(stats.sparql_cache_evictions, 2u);
  EXPECT_EQ(stats.sparql_cache_size, 2u);
}

TEST(EngineConcurrencyTest, EvictedSparqlPlansForgetTheirProgramIdentities) {
  Engine engine(EngineOptions().SetSparqlCacheCapacity(2));
  LoadChain(&engine, 8);
  ASSERT_TRUE(engine.Materialize().ok());

  // Every text is distinct, so every call misses; each miss registers a
  // new program identity, and each eviction must forget one.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  auto runner = [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string z = "?z" + std::to_string(t * kPerThread + i);
      auto mappings = engine.Query("{ ?x edge ?y . ?y edge " + z + " }");
      if (!mappings.ok() || mappings->size() != 7u) ++failures;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(runner, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.sparql_cache_misses,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.sparql_cache_size, 2u);
  // Only the two cached plans still hold identities.
  EXPECT_EQ(stats.query_programs, 2u);
}

TEST(EngineConcurrencyTest, QueryTrippingMaxFactsLeavesSessionUsable) {
  // The cap is generous for the data closure but far too small for the
  // runaway query: only the query-side chase trips it.
  Engine engine(EngineOptions().SetMaxFacts(2000));
  LoadChain(&engine, 15);
  ASSERT_TRUE(engine.Materialize().ok());

  auto runaway = engine.Prepare(
      "triple(?A, ?P1, ?B), triple(?C, ?P2, ?D), triple(?E, ?P3, ?F) "
      "-> big(?A, ?C, ?E) .",
      "big");
  ASSERT_TRUE(runaway.ok());
  auto blown = runaway->Evaluate();
  ASSERT_FALSE(blown.ok());
  EXPECT_EQ(blown.status().code(), StatusCode::kResourceExhausted);

  // The partial query chase was quarantined in its overlay: the session
  // is still materialized and every other read path works.
  EXPECT_TRUE(engine.IsMaterialized());
  auto tc = engine.Answers("tc");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->size(), 15u * 16u / 2u);
  auto modest = engine.Prepare("triple(?X, edge, ?Y) -> one_hop(?X) .",
                               "one_hop");
  ASSERT_TRUE(modest.ok());
  auto modest_answers = modest->Evaluate();
  ASSERT_TRUE(modest_answers.ok());
  EXPECT_EQ(modest_answers->size(), 15u);
}

TEST(EngineConcurrencyTest, QueryDeadlineTripsAndLeavesSessionUsable) {
  Engine engine(EngineOptions().SetQueryDeadline(
      std::chrono::milliseconds(5)));
  LoadChain(&engine, 30);
  ASSERT_TRUE(engine.Materialize().ok());  // materialization: no deadline

  // A four-way cross product over the full closure derives far more
  // than 5ms worth of tuples; the per-match deadline check stops it.
  auto heavy = engine.Prepare(
      "tc(?A, ?B), tc(?C, ?D), tc(?E, ?F), tc(?G, ?H) "
      "-> big(?A, ?C, ?E, ?G) .",
      "big");
  ASSERT_TRUE(heavy.ok());
  auto blown = heavy->Evaluate();
  ASSERT_FALSE(blown.ok());
  EXPECT_EQ(blown.status().code(), StatusCode::kResourceExhausted);

  // Session hygiene: the snapshot is untouched and non-chasing reads
  // (Answers, empty-program queries) still serve under any deadline.
  EXPECT_TRUE(engine.IsMaterialized());
  auto tc = engine.Answers("tc");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->size(), 30u * 31u / 2u);
  auto reader = engine.Prepare("", "tc");
  ASSERT_TRUE(reader.ok());
  auto read_answers = reader->Evaluate();
  ASSERT_TRUE(read_answers.ok());
  EXPECT_EQ(read_answers->size(), 30u * 31u / 2u);
}

TEST(EngineConcurrencyTest, QueryDeadlineTripsInsideLeapfrogJoin) {
  // Same contract as above on a join the planner runs as a leapfrog
  // triejoin: the deadline must be polled inside the leapfrog
  // alignment/gallop loop itself, because a single match pass over a
  // chained self-join of the closure can run far past the budget
  // without ever returning to the per-pass check.
  Engine engine(
      EngineOptions().SetQueryDeadline(std::chrono::milliseconds(5)));
  LoadChain(&engine, 120);
  ASSERT_TRUE(engine.Materialize().ok());

  auto heavy = engine.Prepare(
      "tc(?A, ?B), tc(?B, ?C), tc(?C, ?D) -> big(?A, ?D) .", "big");
  ASSERT_TRUE(heavy.ok());
  // The premise: the planner picks leapfrog for this join on its own.
  // Should it stop doing so, this test would silently fall back to the
  // per-pass deadline check.
  auto snapshot = engine.CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const std::string plans = triq::chase::ExplainProgramPlans(
      heavy->program(), (*snapshot)->instance);
  ASSERT_NE(plans.find("strategy: leapfrog (auto)"), std::string::npos)
      << plans;
  auto blown = heavy->Evaluate();
  ASSERT_FALSE(blown.ok());
  EXPECT_EQ(blown.status().code(), StatusCode::kResourceExhausted);

  // The deadline tripped mid-leapfrog, not mid-session: reads still
  // serve the published closure.
  EXPECT_TRUE(engine.IsMaterialized());
  auto tc = engine.Answers("tc");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->size(), 120u * 121u / 2u);
}

TEST(EngineConcurrencyTest, CyclicSparqlReadersRaceWriterCleanly) {
  // Cyclic basic graph patterns plan leapfrog joins whose multi-position
  // trie orders (Relation::LexPerm) are built lazily on the published
  // snapshot's own relations. Readers issuing different cyclic patterns
  // build them concurrently on one snapshot while the writer clones that
  // snapshot for the next materialization; ThreadSanitizer builds catch
  // a regression.
  constexpr int kInitialGadgets = 3;
  constexpr int kFinalGadgets = 12;
  Engine engine(
      EngineOptions().SetRegime(triq::EntailmentRegime::kActiveDomain));
  // Gadget g: one directed triangle and one directed square, disjoint
  // from every other gadget.
  auto add_gadget = [&](int g) {
    const std::string t = "t" + std::to_string(g) + "_";
    const std::string q = "s" + std::to_string(g) + "_";
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine
                      .AddTriple(t + std::to_string(i), "edge",
                                 t + std::to_string((i + 1) % 3))
                      .ok());
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine
                      .AddTriple(q + std::to_string(i), "edge",
                                 q + std::to_string((i + 1) % 4))
                      .ok());
    }
  };
  for (int g = 0; g < kInitialGadgets; ++g) add_gadget(g);
  ASSERT_TRUE(engine.Materialize().ok());

  // Each directed triangle matches 3 rotations and each square 4, so a
  // consistent snapshot with m gadgets answers 3m and 4m rows.
  const struct {
    std::string sparql;
    size_t rows_per_gadget;
  } kQueries[] = {
      {"{ ?x edge ?y . ?y edge ?z . ?z edge ?x }", 3},
      {"{ ?a edge ?b . ?b edge ?c . ?c edge ?d . ?d edge ?a }", 4},
  };
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (const auto& query : kQueries) {
    readers.emplace_back([&engine, &done, &failures, &query] {
      size_t last_rows = 0;
      for (bool first = true;
           first || !done.load(std::memory_order_acquire); first = false) {
        auto rows = engine.Query(query.sparql);
        if (!rows.ok() || rows->size() % query.rows_per_gadget != 0 ||
            rows->size() < last_rows ||
            rows->size() < kInitialGadgets * query.rows_per_gadget) {
          ++failures;
          return;
        }
        last_rows = rows->size();
      }
    });
  }
  for (int g = kInitialGadgets; g < kFinalGadgets; ++g) {
    add_gadget(g);
    ASSERT_TRUE(engine.Materialize().ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  for (const auto& query : kQueries) {
    auto rows = engine.Query(query.sparql);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), kFinalGadgets * query.rows_per_gadget);
  }
}

TEST(EngineConcurrencyTest, JournaledWritesRaceReadersCleanly) {
  // TSan coverage for the journal path: one writer appending journaled
  // mutations (and checkpointing through Materialize) while readers
  // hammer Answers() and the journal stats. The invariants are the same
  // as the journal-less stress above — consistent snapshots — plus
  // monotone journal counters and a faithful recovery at the end.
  const std::string wal = ::testing::TempDir() + "/race.wal";
  std::remove(wal.c_str());
  std::remove((wal + ".ckpt").c_str());
  std::remove((wal + ".ckpt.tmp").c_str());

  auto opened = Engine::Open(EngineOptions()
                                 .SetJournalPath(wal)
                                 .SetJournalBatchInterval(4));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Engine& engine = **opened;
  LoadChain(&engine, 4);
  ASSERT_TRUE(engine.Materialize().ok());

  constexpr int kFinalLength = 32;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last_records = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto tc = engine.Answers("tc");
        EXPECT_TRUE(tc.ok());
        EngineStats stats = engine.stats();
        EXPECT_TRUE(stats.journal_enabled);
        EXPECT_GE(stats.journal_records, last_records);
        last_records = stats.journal_records;
      }
    });
  }
  for (int i = 4; i < kFinalLength; ++i) {
    ASSERT_TRUE(engine.AddTriple(Node(i), "edge", Node(i + 1)).ok());
    if (i % 8 == 0) {
      ASSERT_TRUE(engine.Materialize().ok());
    }
  }
  ASSERT_TRUE(engine.Materialize().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  auto tc = engine.Answers("tc");
  ASSERT_TRUE(tc.ok());
  const size_t expect = kFinalLength * (kFinalLength + 1) / 2;
  EXPECT_EQ(tc->size(), expect);
  EngineStats stats = engine.stats();
  EXPECT_GE(stats.journal_checkpoints, 1u);

  // Recovery sees everything the live session saw.
  opened->reset();
  auto reopened = Engine::Open(EngineOptions().SetJournalPath(wal));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto recovered_tc = (*reopened)->Answers("tc");
  ASSERT_TRUE(recovered_tc.ok());
  EXPECT_EQ(recovered_tc->size(), expect);
}

}  // namespace
