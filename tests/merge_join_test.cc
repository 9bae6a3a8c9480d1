// The join-executor layer: hash-probe vs merge-join equivalence.
//
// The access-path planner (match.cc) may replace posting probes with a
// sorted driver + galloping cursor; nothing about the produced matches
// may change. These tests pin that down at the MatchBody level and
// end-to-end through the chase, on hand-built joins and on randomized
// programs with negation and repeated predicates.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/workloads.h"
#include "datalog/parser.h"

namespace triq {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

/// All matches of `rule`'s body as rendered bindings, sorted — the
/// enumeration-order-free fingerprint of a MatchBody pass.
std::vector<std::string> MatchFingerprint(const datalog::Rule& rule,
                                          const chase::Instance& db,
                                          chase::MatchOptions options) {
  std::vector<std::string> out;
  Status status =
      MatchBody(rule, db, options, [&](const chase::Match& match) {
        std::vector<std::string> parts;
        for (const auto& [var, val] : match.binding->entries()) {
          parts.push_back(TermToString(var, db.dict()) + "=" +
                          TermToString(val, db.dict()));
        }
        std::sort(parts.begin(), parts.end());
        std::string line;
        for (const std::string& p : parts) line += p + " ";
        out.push_back(line);
        return true;
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::sort(out.begin(), out.end());
  return out;
}

datalog::Rule ParseR(std::string_view text, Dictionary* dict) {
  auto rule = datalog::ParseRule(text, dict);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return std::move(rule).value();
}

TEST(MergeJoinMatchTest, StrategiesEnumerateTheSameMatches) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(11);
  // Dense enough that the driver window clears the kAuto threshold and
  // values repeat on both sides of the join.
  for (int i = 0; i < 120; ++i) {
    db.AddFact("e", {"a" + std::to_string(rng() % 12),
                     "b" + std::to_string(rng() % 12)});
    db.AddFact("f", {"b" + std::to_string(rng() % 12),
                     "c" + std::to_string(rng() % 12)});
  }
  datalog::Rule rule =
      ParseR("e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)", dict.get());
  chase::MatchOptions hash;
  hash.join_strategy = chase::JoinStrategy::kHash;
  chase::MatchOptions merge;
  merge.join_strategy = chase::JoinStrategy::kMerge;
  chase::MatchOptions leapfrog;
  leapfrog.join_strategy = chase::JoinStrategy::kLeapfrog;
  chase::MatchOptions automatic;  // default
  auto expected = MatchFingerprint(rule, db, hash);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(MatchFingerprint(rule, db, merge), expected);
  EXPECT_EQ(MatchFingerprint(rule, db, leapfrog), expected);
  EXPECT_EQ(MatchFingerprint(rule, db, automatic), expected);
}

/// The leapfrog residual on the workload it was built for: a 3-atom
/// cyclic (triangle) rule, where kAuto engages it. All strategies
/// enumerate the identical match set, with and without delta/atom_end
/// windows on the driver.
TEST(MergeJoinMatchTest, TriangleStrategiesAgreeUnderWindows) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(23);
  for (int i = 0; i < 300; ++i) {
    db.AddFact("e", {"n" + std::to_string(rng() % 24),
                     "n" + std::to_string(rng() % 24)});
  }
  datalog::Rule rule =
      ParseR("e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> t(?X, ?Z)", dict.get());
  chase::MatchOptions base;
  for (size_t delta_begin : {chase::kNoTupleLimit, size_t{0}, size_t{150}}) {
    chase::MatchOptions opts = base;
    if (delta_begin != chase::kNoTupleLimit) {
      opts.delta_body_index = 0;
      opts.delta_begin = delta_begin;
      opts.delta_end = delta_begin + 120;
      opts.atom_end = {chase::kNoTupleLimit, 280, 260};
    }
    chase::MatchOptions hash = opts;
    hash.join_strategy = chase::JoinStrategy::kHash;
    chase::MatchOptions merge = opts;
    merge.join_strategy = chase::JoinStrategy::kMerge;
    chase::MatchOptions leapfrog = opts;
    leapfrog.join_strategy = chase::JoinStrategy::kLeapfrog;
    chase::MatchOptions automatic = opts;  // kAuto: engages the leapfrog
    auto expected = MatchFingerprint(rule, db, hash);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(MatchFingerprint(rule, db, merge), expected)
        << "delta_begin=" << delta_begin;
    EXPECT_EQ(MatchFingerprint(rule, db, leapfrog), expected)
        << "delta_begin=" << delta_begin;
    EXPECT_EQ(MatchFingerprint(rule, db, automatic), expected)
        << "delta_begin=" << delta_begin;
  }
}

/// A 4-atom star join (shared center variable) through the leapfrog
/// residual, with a repeated predicate and a constant restriction.
TEST(MergeJoinMatchTest, StarJoinStrategiesAgree) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(31);
  for (int i = 0; i < 200; ++i) {
    db.AddFact("a", {"c" + std::to_string(rng() % 8),
                     "x" + std::to_string(rng() % 40)});
    db.AddFact("b", {"c" + std::to_string(rng() % 8),
                     "y" + std::to_string(rng() % 6)});
  }
  datalog::Rule rule = ParseR(
      "a(?C, ?X), b(?C, ?Y), a(?C, ?Z), b(?C, y3) -> s(?X, ?Y, ?Z)",
      dict.get());
  chase::MatchOptions hash;
  hash.join_strategy = chase::JoinStrategy::kHash;
  chase::MatchOptions leapfrog;
  leapfrog.join_strategy = chase::JoinStrategy::kLeapfrog;
  chase::MatchOptions automatic;
  auto expected = MatchFingerprint(rule, db, hash);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(MatchFingerprint(rule, db, leapfrog), expected);
  EXPECT_EQ(MatchFingerprint(rule, db, automatic), expected);
}

TEST(MergeJoinMatchTest, StrategiesRespectDeltaAndAtomEndWindows) {
  auto dict = Dict();
  chase::Instance db(dict);
  for (int i = 0; i < 80; ++i) {
    db.AddFact("e", {"v" + std::to_string(i % 10),
                     "v" + std::to_string((i + 1) % 10) + "_" +
                         std::to_string(i)});
    db.AddFact("e", {"v" + std::to_string(i % 10) + "_x",
                     "v" + std::to_string((i * 3) % 10)});
  }
  datalog::Rule rule =
      ParseR("e(?X, ?Y), e(?Y, ?Z) -> p(?X, ?Z)", dict.get());
  for (size_t delta_begin : {0u, 40u, 100u}) {
    chase::MatchOptions hash;
    hash.delta_body_index = 0;
    hash.delta_begin = delta_begin;
    hash.delta_end = delta_begin + 50;
    hash.atom_end = {chase::kNoTupleLimit, 120};
    chase::MatchOptions merge = hash;
    hash.join_strategy = chase::JoinStrategy::kHash;
    merge.join_strategy = chase::JoinStrategy::kMerge;
    EXPECT_EQ(MatchFingerprint(rule, db, merge),
              MatchFingerprint(rule, db, hash))
        << "delta_begin=" << delta_begin;
  }
}

/// Generates a random plain-Datalog program with stratified negation
/// over a small schema, plus a random database (the property_test
/// generator shape, denser so merge paths engage).
class RandomDatalog {
 public:
  explicit RandomDatalog(uint64_t seed) : rng_(seed) {}

  std::string ProgramText(int rules) {
    std::string out;
    for (int r = 0; r < rules; ++r) {
      int head = static_cast<int>(rng_() % 4);
      std::string body;
      int atoms = 1 + static_cast<int>(rng_() % 2);
      std::vector<std::string> vars = {"?X", "?Y", "?Z"};
      for (int a = 0; a < atoms; ++a) {
        if (a > 0) body += ", ";
        body += RandomEdbAtom(vars);
      }
      if (head > 0 && (rng_() % 3) == 0) {
        body += ", not p" + std::to_string(rng_() % head) + "(?X)";
      }
      if (head > 0 && (rng_() % 2) == 0) {
        body += ", p" + std::to_string(rng_() % (head + 1)) + "(?Y)";
      }
      out += body + " -> p" + std::to_string(head) + "(?X) .\n";
    }
    return out;
  }

  void FillDatabase(chase::Instance* db, int facts) {
    for (int i = 0; i < facts; ++i) {
      db->AddFact(rng_() % 2 == 0 ? "e0" : "e1", {Constant(), Constant()});
    }
    db->AddFact("p0", {Constant()});
  }

 private:
  std::string Constant() {
    return std::string(1, static_cast<char>('a' + rng_() % 5));
  }
  std::string RandomEdbAtom(const std::vector<std::string>& vars) {
    std::string pred = rng_() % 2 == 0 ? "e0" : "e1";
    std::string v1 = vars[rng_() % vars.size()];
    std::string v2 = vars[rng_() % vars.size()];
    return pred + "(?X, " + (rng_() % 2 == 0 ? v1 : v2) + ")";
  }

  std::mt19937_64 rng_;
};

/// The strategy grid: every join strategy × threads {1, 4} fixes the
/// instance the naive fixpoint fixes (plain Datalog: exact ToString, so
/// tuple order too), and the match counts (`rule_firings`,
/// `facts_derived`) are identical across strategies and thread counts —
/// the match SET of every pass is strategy-independent.
void ExpectStrategyGridEquivalence(const datalog::Program& program,
                                   const chase::Instance& db) {
  chase::ChaseOptions naive;
  naive.seminaive = false;
  naive.join_strategy = chase::JoinStrategy::kHash;
  chase::Instance naive_db = db.CloneFacts();
  ASSERT_TRUE(RunChase(program, &naive_db, naive).ok());
  const std::string expected = naive_db.ToString();

  const chase::JoinStrategy strategies[] = {
      chase::JoinStrategy::kHash, chase::JoinStrategy::kMerge,
      chase::JoinStrategy::kLeapfrog, chase::JoinStrategy::kAuto};
  // Reference counters: hash, 1 thread.
  chase::ChaseStats ref_stats;
  bool have_ref = false;
  for (chase::JoinStrategy strategy : strategies) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      chase::ChaseOptions options;
      options.join_strategy = strategy;
      options.num_threads = threads;
      chase::Instance run_db = db.CloneFacts();
      chase::ChaseStats stats;
      ASSERT_TRUE(RunChase(program, &run_db, options, &stats).ok());
      std::string label = "strategy=" +
                          std::to_string(static_cast<int>(strategy)) +
                          " threads=" + std::to_string(threads);
      EXPECT_EQ(run_db.ToString(), expected)
          << label << "\n" << program.ToString();
      if (!have_ref) {
        ref_stats = stats;
        have_ref = true;
      } else {
        EXPECT_EQ(stats.rule_firings, ref_stats.rule_firings) << label;
        EXPECT_EQ(stats.facts_derived, ref_stats.facts_derived) << label;
        EXPECT_EQ(stats.rounds, ref_stats.rounds) << label;
      }
    }
  }
}

class JoinStrategySweep : public ::testing::TestWithParam<int> {};

/// The strategy grid on random stratified programs.
TEST_P(JoinStrategySweep, StrategyGridEquivalence) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomDatalog gen(seed);
  auto dict = Dict();
  auto program = datalog::ParseProgram(gen.ProgramText(6), dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  chase::Instance db(dict);
  RandomDatalog filler(seed + 7000);
  filler.FillDatabase(&db, 60);  // dense: merge paths engage under kAuto
  ExpectStrategyGridEquivalence(*program, db);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinStrategySweep, ::testing::Range(1, 21));

/// The strategy grid on probes bound at two positions with skewed
/// posting ranges: a bound subject with one or two triples next to the
/// 5,000-entry `e` range, and a hub subject with thousands of triples
/// next to the six-entry `r` range. Either way only the shorter range
/// is scanned and unification rejects the rest.
TEST(MergeJoinChaseTest, TwoBoundProbesOverSkewedPostingsAgree) {
  auto dict = Dict();
  auto program = datalog::ParseProgram(R"(
    start(?X), triple(?X, e, ?Y) -> step(?X, ?Y) .
    step(?X, ?Y), triple(?Y, e, ?Z) -> two(?X, ?Z) .
    step(?X, ?Y), triple(?Y, r, ?Z) -> tagged(?X, ?Z) .
    start(?X), triple(?X, r, ?Z) -> rare(?X, ?Z) .
  )",
                                       dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  chase::Instance db(dict);
  for (int i = 0; i < 2500; ++i) {
    std::string m = "m" + std::to_string(i);
    db.AddFact("triple", {"hub", "e", m});
    db.AddFact("triple", {m, "e", "x" + std::to_string(i % 40)});
  }
  for (int j = 0; j < 3; ++j) {
    db.AddFact("triple", {"hub", "r", "q" + std::to_string(j)});
    db.AddFact("triple", {"m" + std::to_string(7 * j), "r", "q0"});
  }
  db.AddFact("start", {"hub"});
  db.AddFact("start", {"m7"});
  ExpectStrategyGridEquivalence(*program, db);
}

/// Triangle closure end-to-end through the chase: the 3-atom cyclic
/// rule that kAuto routes to the leapfrog operator, on a random graph,
/// across all strategies and thread counts — identical instances and
/// exact counter equality (plain Datalog).
TEST(MergeJoinChaseTest, TriangleAgreesAcrossStrategiesAndThreads) {
  auto dict = Dict();
  auto program = datalog::ParseProgram(
      "e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> tri(?X, ?Y, ?Z) .", dict);
  ASSERT_TRUE(program.ok());
  chase::Instance db(dict);
  std::mt19937 rng(5);
  for (int i = 0; i < 600; ++i) {
    db.AddFact("e", {"n" + std::to_string(rng() % 40),
                     "n" + std::to_string(rng() % 40)});
  }

  chase::ChaseOptions hash;
  hash.join_strategy = chase::JoinStrategy::kHash;
  chase::Instance hash_db = db.CloneFacts();
  chase::ChaseStats hash_stats;
  ASSERT_TRUE(RunChase(*program, &hash_db, hash, &hash_stats).ok());
  ASSERT_GT(hash_db.Find("tri")->size(), 0u);

  for (chase::JoinStrategy strategy :
       {chase::JoinStrategy::kMerge, chase::JoinStrategy::kLeapfrog,
        chase::JoinStrategy::kAuto}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      chase::ChaseOptions options;
      options.join_strategy = strategy;
      options.num_threads = threads;
      chase::Instance run_db = db.CloneFacts();
      chase::ChaseStats stats;
      ASSERT_TRUE(RunChase(*program, &run_db, options, &stats).ok());
      std::string label = "strategy=" +
                          std::to_string(static_cast<int>(strategy)) +
                          " threads=" + std::to_string(threads);
      EXPECT_EQ(run_db.ToString(), hash_db.ToString()) << label;
      EXPECT_EQ(stats.rule_firings, hash_stats.rule_firings) << label;
      EXPECT_EQ(stats.facts_derived, hash_stats.facts_derived) << label;
    }
  }
}

/// Transitive closure on a chain — the workload the merge join was
/// built for — derives the same closure with the same exact counters
/// under every strategy.
TEST(MergeJoinChaseTest, TransitiveClosureAgreesAcrossStrategies) {
  constexpr int kChain = 64;  // > kAutoMergeMinWindow: kAuto merges too
  auto dict = Dict();
  auto program = core::TransitiveClosureProgram(dict);
  chase::Instance db = core::ChainDatabase(kChain, dict);

  chase::ChaseOptions hash;
  hash.join_strategy = chase::JoinStrategy::kHash;
  chase::ChaseOptions merge;
  merge.join_strategy = chase::JoinStrategy::kMerge;

  chase::Instance hash_db = db.CloneFacts();
  chase::Instance merge_db = db.CloneFacts();
  chase::ChaseStats hash_stats, merge_stats;
  ASSERT_TRUE(RunChase(program, &hash_db, hash, &hash_stats).ok());
  ASSERT_TRUE(RunChase(program, &merge_db, merge, &merge_stats).ok());
  EXPECT_EQ(merge_db.Find("tc")->size(),
            static_cast<size_t>(kChain) * (kChain + 1) / 2);
  EXPECT_EQ(merge_db.ToString(), hash_db.ToString());
  EXPECT_EQ(merge_stats.rule_firings, hash_stats.rule_firings);
  EXPECT_EQ(merge_stats.facts_derived, hash_stats.facts_derived);
  EXPECT_EQ(merge_stats.rounds, hash_stats.rounds);
}

/// With old/delta/all partitioning, the exact firing count of the
/// repeated-predicate join (property_test pins 14 on a 4-edge chain)
/// is preserved under forced merge join.
TEST(MergeJoinChaseTest, RepeatedPredicateFiringsStayExact) {
  auto dict = Dict();
  auto program = datalog::ParseProgram(R"(
    e(?X, ?Y) -> t(?X, ?Y) .
    t(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z) .
  )",
                                       dict);
  ASSERT_TRUE(program.ok());
  chase::Instance db(dict);
  for (int i = 0; i < 4; ++i) {
    db.AddFact("e", {"v" + std::to_string(i), "v" + std::to_string(i + 1)});
  }
  chase::ChaseOptions merge;
  merge.join_strategy = chase::JoinStrategy::kMerge;
  chase::ChaseStats stats;
  ASSERT_TRUE(RunChase(*program, &db, merge, &stats).ok());
  EXPECT_EQ(db.Find("t")->size(), 10u);
  EXPECT_EQ(stats.rule_firings, 14u);
}

}  // namespace
}  // namespace triq
