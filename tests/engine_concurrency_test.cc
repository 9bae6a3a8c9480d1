// The engine's snapshot-isolation contract under concurrency, plus the
// session-hygiene regressions the concurrent server surfaced:
//  * N reader threads evaluating during writer re-materializations must
//    each see a consistent snapshot — the full closure of some chain
//    prefix, never a mix of two closures, and never an older closure
//    than one it already saw.
//  * Programs that share a head predicate evaluate independently while
//    a writer republishes.
//  * No reader waits for the writer: while a rebuild holds the writer
//    lock, SPARQL misses and hits, Prepare + Evaluate and ExplainProgram
//    all serve the published snapshot.
//  * Writers never consult live queries: rules over a live handle's
//    head are accepted, and that handle's next evaluation fails.
//  * The SPARQL plan cache is bounded (LRU) with hit/miss/eviction
//    counters, also under concurrent misses.
//  * A query-side chase tripping max_facts or the per-query deadline
//    fails with ResourceExhausted and leaves the session usable; a
//    failed SPARQL evaluation caches nothing in its plan.
//  * program() and base() may be read while writers run.
//  * Readers planning cyclic SPARQL patterns on a published snapshot
//    and the writer cloning it do not race on lazily built indexes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "chase/fact_dump.h"
#include "common/failpoint.h"
#include "core/triq.h"
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

TEST(EngineConcurrencyTest, ProgramsSharingAHeadEvaluateIndependently) {
  // Four programs derive q from one edge chain, each by its own rule.
  const std::vector<std::string> programs = {
      "triple(?X, edge, ?Y) -> q(?X) .",
      "triple(?X, edge, ?Y) -> q(?Y) .",
      "triple(?X, edge, ?Y), triple(?Y, edge, ?Z) -> q(?X) .",
      "triple(?X, edge, ?Y), triple(?Y, edge, ?Z) -> q(?Z) .",
  };
  constexpr int kInitialLength = 15;  // 16 nodes
  constexpr int kWrites = 8;

  Engine engine;
  for (int i = 0; i < kInitialLength; ++i) {
    ASSERT_TRUE(engine.AddTriple(Node(i), "edge", Node(i + 1)).ok());
  }
  std::vector<triq::PreparedQuery> handles;
  handles.reserve(programs.size());
  for (const std::string& text : programs) {
    auto prepared = engine.Prepare(text, "q");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    handles.push_back(std::move(*prepared));
  }

  std::atomic<bool> writes_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (triq::PreparedQuery& handle : handles) {
    readers.emplace_back([&handle, &writes_done, &failures] {
      do {
        if (!handle.Evaluate().ok()) ++failures;
      } while (!writes_done.load());
    });
  }
  std::thread writer([&] {
    for (int i = kInitialLength; i < kInitialLength + kWrites; ++i) {
      if (!engine.AddTriple(Node(i), "edge", Node(i + 1)).ok() ||
          !engine.Materialize().ok()) {
        ++failures;
      }
    }
    writes_done.store(true);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Each handle answers exactly its own (Π, q) over the final snapshot.
  auto snap = engine.CurrentSnapshot();
  ASSERT_TRUE(snap.ok());
  std::vector<std::set<triq::chase::Tuple>> answers;
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE(programs[i]);
    auto got = handles[i].Evaluate();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto reference = triq::core::TriqQuery::Create(handles[i].program(), "q");
    ASSERT_TRUE(reference.ok());
    auto expected = reference->Evaluate((*snap)->instance);
    ASSERT_TRUE(expected.ok());
    answers.emplace_back(got->begin(), got->end());
    EXPECT_EQ(answers.back(),
              std::set<triq::chase::Tuple>(expected->begin(), expected->end()));
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    for (size_t j = i + 1; j < answers.size(); ++j) {
      EXPECT_NE(answers[i], answers[j]) << programs[i] << " / " << programs[j];
    }
  }
}

TEST(EngineConcurrencyTest, NoReaderWaitsForTheWriter) {
  // A rebuild of the closure over a 1,000-node chain runs about 1,000
  // chase rounds under the writer lock. Readers serve the snapshot
  // published before it, so each returns before the writer publishes.
  constexpr int kLength = 1000;
  Engine engine;
  for (int i = 0; i < kLength; ++i) {
    ASSERT_TRUE(engine.AddTriple(Node(i), "edge", Node(i + 1)).ok());
  }
  ASSERT_TRUE(engine.AttachRules("triple(?X, edge, ?Y) -> hop(?X) .").ok());
  ASSERT_TRUE(engine.Materialize().ok());
  const std::string cached = "{ ?x edge ?y }";
  ASSERT_TRUE(engine.Query(cached).ok());
  ASSERT_TRUE(engine
                  .AttachRules(
                      "triple(?X, edge, ?Y) -> tc(?X, ?Y) .\n"
                      "tc(?X, ?Y), triple(?Y, edge, ?Z) -> tc(?X, ?Z) .")
                  .ok());
  const uint64_t before = engine.materializations();

  // Runs while the writer holds the lock; an ASSERT returns from the
  // lambda only, so the writer is always joined.
  auto read = [&] {
    auto miss = engine.Query("{ ?x edge n1 }");
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    EXPECT_EQ(miss->size(), 1u);
    EXPECT_EQ(engine.materializations(), before) << "SPARQL miss";
    auto hit = engine.Query(cached);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(hit->size(), static_cast<size_t>(kLength));
    EXPECT_EQ(engine.materializations(), before) << "SPARQL hit";
    auto prepared =
        engine.Prepare("triple(?X, edge, ?Y) -> out(?Y) .", "out");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto answers = prepared->Evaluate();
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(answers->size(), static_cast<size_t>(kLength));
    EXPECT_EQ(engine.materializations(), before) << "Prepare + Evaluate";
    // The published snapshot's program: the hop rule, not the tc rules
    // still being materialized.
    auto plans = engine.ExplainProgram();
    ASSERT_TRUE(plans.ok()) << plans.status().ToString();
    EXPECT_EQ(plans->rfind("rule 0: triple(?X, edge, ?Y) -> hop(?X)", 0),
              0u)
        << *plans;
    EXPECT_EQ(plans->find("rule 1:"), std::string::npos) << *plans;
    EXPECT_EQ(engine.materializations(), before) << "ExplainProgram";
  };

  // Every failpoint site counts once anything is configured, so an
  // unused one makes the writer's chase rounds visible.
  ASSERT_TRUE(triq::FailpointsConfigure("engine_concurrency_test.unused"));
  std::atomic<bool> written{false};
  std::thread writer([&] {
    EXPECT_TRUE(engine.Materialize().ok());
    written.store(true, std::memory_order_release);
  });
  while (triq::FailpointEvaluations("chase.round.abort") == 0 &&
         !written.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  read();
  writer.join();
  ASSERT_TRUE(triq::FailpointsConfigure(""));
  EXPECT_EQ(engine.materializations(), before + 1);
}

TEST(EngineConcurrencyTest, RulesOverALiveHeadFailThatHandlesEvaluate) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle("a edge b .").ok());
  const std::string query = "triple(?X, edge, ?Y) -> q(?X) .";
  auto held = engine.Prepare(query, "q");
  ASSERT_TRUE(held.ok());
  std::optional<triq::PreparedQuery> moved;
  {
    auto shell = engine.Prepare(query, "q");
    ASSERT_TRUE(shell.ok());
    ASSERT_TRUE(shell->Evaluate().ok());
    moved.emplace(std::move(*shell));
  }
  // Writers never consult live queries: the data program may derive q
  // while both handles live.
  ASSERT_TRUE(engine.AttachRules("triple(?X, edge, ?Y) -> q(?Y) .").ok());
  for (triq::PreparedQuery* handle : {&*held, &*moved}) {
    auto clashed = handle->Evaluate();
    ASSERT_FALSE(clashed.ok());
    EXPECT_EQ(clashed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(clashed.status().message(),
              "query derives predicate 'q', which the data program "
              "mentions; AttachProgram the rules instead");
  }
  // The data program's own q is unaffected.
  auto data_q = engine.Answers("q");
  ASSERT_TRUE(data_q.ok()) << data_q.status().ToString();
  EXPECT_EQ(data_q->size(), 1u);
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

TEST(EngineConcurrencyTest, ConcurrentSparqlMissesEvictDownToCapacity) {
  Engine engine(EngineOptions().SetSparqlCacheCapacity(2));
  LoadChain(&engine, 8);
  ASSERT_TRUE(engine.Materialize().ok());

  // Every text is distinct, so every call misses and inserts a plan, and
  // evictions keep the cache at its capacity.
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

TEST(EngineConcurrencyTest, SparqlQueryTrippingMaxFactsDoesNotPoisonItsPlan) {
  // The closure (15 edges, 120 tc facts) fits the cap; the three-way
  // cross product of the edges (3,375 rows) does not.
  Engine engine(EngineOptions().SetMaxFacts(2000));
  LoadChain(&engine, 15);
  ASSERT_TRUE(engine.Materialize().ok());

  const std::string runaway =
      "AND(AND({ ?A edge ?B }, { ?C edge ?D }), { ?E edge ?F })";
  // A miss, then a hit on the plan the miss cached: the failure cached
  // no rows, so the hit chases again and fails the same way instead of
  // returning stale or empty mappings.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto blown = engine.Query(runaway);
    ASSERT_FALSE(blown.ok()) << "attempt " << attempt << " returned "
                             << blown->size() << " rows";
    EXPECT_EQ(blown.status().code(), StatusCode::kResourceExhausted);
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.sparql_cache_misses, 1u);
  EXPECT_EQ(stats.sparql_cache_hits, 1u);
  EXPECT_EQ(stats.sparql_cache_size, 1u);

  EXPECT_TRUE(engine.IsMaterialized());
  auto modest = engine.Query("{ ?X edge ?Y }");
  ASSERT_TRUE(modest.ok()) << modest.status().ToString();
  EXPECT_EQ(modest->size(), 15u);
}

TEST(EngineConcurrencyTest, QueryDeadlineTripsAndLeavesSessionUsable) {
  Engine engine(EngineOptions().SetQueryDeadline(
      std::chrono::milliseconds(5)));
  LoadChain(&engine, 30);
  ASSERT_TRUE(engine.Materialize().ok());  // materialization: no deadline

  // A four-way cross product over the full closure derives far more
  // than 5ms worth of tuples; the matcher's deadline poll stops it.
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
  // between two candidate visits.
  Engine engine(
      EngineOptions().SetQueryDeadline(std::chrono::milliseconds(5)));
  LoadChain(&engine, 120);
  ASSERT_TRUE(engine.Materialize().ok());

  auto heavy = engine.Prepare(
      "tc(?A, ?B), tc(?B, ?C), tc(?C, ?D) -> big(?A, ?D) .", "big");
  ASSERT_TRUE(heavy.ok());
  // The premise: the planner picks leapfrog for this join on its own.
  // Should it stop doing so, this test would silently fall back to the
  // candidate-visit deadline poll.
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

TEST(EngineConcurrencyTest, WriterStateAccessorsRaceWritesCleanly) {
  // program() and base() copy writer state under the writer lock, so a
  // reader may call them while another thread adds facts, attaches
  // rules and materializes (ThreadSanitizer checks this in CI).
  constexpr int kWrites = 40;
  Engine engine;
  std::atomic<bool> stop{false};
  std::atomic<int> regressions{0};
  std::thread reader([&] {
    size_t last_facts = 0;
    size_t last_rules = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const size_t facts = engine.base().TotalFacts();
      const size_t rules = engine.program().size();
      // Writers only add, so neither copy may ever shrink.
      if (facts < last_facts || rules < last_rules) ++regressions;
      last_facts = facts;
      last_rules = rules;
    }
  });
  for (int i = 0; i < kWrites; ++i) {
    const std::string rule =
        "triple(?X, edge, ?Y) -> hop" + std::to_string(i) + "(?X) .";
    const bool written = engine.AddTriple(Node(i), "edge", Node(i + 1)).ok() &&
                         engine.AttachRules(rule).ok() &&
                         engine.Materialize().ok();
    EXPECT_TRUE(written) << "write " << i;
    if (!written) break;
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(engine.base().TotalFacts(), static_cast<size_t>(kWrites));
  EXPECT_EQ(engine.program().size(), static_cast<size_t>(kWrites));
}

TEST(EngineConcurrencyTest, RacingTurtleLoadsIntoAFreshSessionKeepBoth) {
  // Two loaders stage disjoint texts and race for the writer lock of a
  // never-materialized, empty session while a reader materializes
  // through Answers. Whichever loader gets there first adopts its staged
  // instance (unless the reader published a snapshot first), and the
  // other appends; every interleaving must end with the union in the
  // base, and every snapshot a reader sees is the closure of a prefix.
  constexpr int kTriples = 2000;
  auto text = [](const std::string& side) {
    std::string out;
    for (int i = 0; i < kTriples; ++i) {
      out += side + std::to_string(i) + " edge " + side +
             std::to_string(i + 1) + " .\n";
    }
    return out;
  };
  const std::string left = text("l");
  const std::string right = text("r");
  Engine reference;
  ASSERT_TRUE(reference.LoadTurtle(left).ok());
  ASSERT_TRUE(reference.LoadTurtle(right).ok());
  const uint64_t union_fingerprint =
      triq::chase::FactFingerprint(reference.base());

  for (int round = 0; round < 4; ++round) {
    Engine engine;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto rows = engine.Answers("triple");
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        EXPECT_TRUE(rows->empty() || rows->size() == kTriples ||
                    rows->size() == 2 * kTriples)
            << rows->size();
      }
    });
    std::thread left_loader(
        [&] { EXPECT_TRUE(engine.LoadTurtle(left).ok()); });
    std::thread right_loader(
        [&] { EXPECT_TRUE(engine.LoadTurtle(right).ok()); });
    left_loader.join();
    right_loader.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(engine.base().TotalFacts(), 2u * kTriples);
    EXPECT_EQ(triq::chase::FactFingerprint(engine.base()), union_fingerprint);
    auto rows = engine.Answers("triple");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 2u * kTriples);
  }
}

}  // namespace
