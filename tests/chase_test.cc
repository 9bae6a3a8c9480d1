#include <gtest/gtest.h>

#include <memory>

#include "chase/chase.h"
#include "chase/instance.h"
#include "datalog/parser.h"
#include "test_util.h"

namespace triq::chase {
namespace {

using datalog::Program;
using test::CountFacts;
using test::Dict;
using test::Parse;

TEST(ChaseTest, TransitiveClosureOfAChain) {
  auto dict = Dict();
  Program program = Parse(R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    edge(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
  )",
                          dict);
  Instance db(dict);
  for (int i = 0; i < 10; ++i) {
    db.AddFact("edge", {"v" + std::to_string(i), "v" + std::to_string(i + 1)});
  }
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "tc"), 55u);  // 10+9+...+1
}

TEST(ChaseTest, NaiveAndSeminaiveAgree) {
  auto dict1 = Dict();
  auto dict2 = Dict();
  const std::string_view text = R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    edge(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
    tc(?X, ?Y), tc(?Y, ?X) -> cyclic(?X) .
  )";
  auto build = [](std::shared_ptr<Dictionary> dict) {
    Instance db(dict);
    db.AddFact("edge", {"a", "b"});
    db.AddFact("edge", {"b", "c"});
    db.AddFact("edge", {"c", "a"});
    db.AddFact("edge", {"c", "d"});
    return db;
  };
  Instance db1 = build(dict1);
  Instance db2 = build(dict2);
  ChaseOptions naive;
  naive.seminaive = false;
  ASSERT_TRUE(RunChase(Parse(text, dict1), &db1, {}).ok());
  ASSERT_TRUE(RunChase(Parse(text, dict2), &db2, naive).ok());
  EXPECT_EQ(db1.ToString(), db2.ToString());
}

TEST(ChaseTest, ExistentialInventsNull) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
  EXPECT_EQ(CountFacts(db, "s"), 1u);
  const Relation* s = db.Find(dict->Intern("s"));
  EXPECT_TRUE(s->tuple(0)[1].IsNull());
}

TEST(ChaseTest, RestrictedChaseSkipsSatisfiedHead) {
  auto dict = Dict();
  // s(c, d) already witnesses the head for p(c).
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  db.AddFact("s", {"c", "d"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 0u);
  EXPECT_EQ(CountFacts(db, "s"), 1u);
}

TEST(ChaseTest, ObliviousChaseFiresAnyway) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  db.AddFact("s", {"c", "d"});
  ChaseOptions options;
  options.mode = ChaseOptions::Mode::kOblivious;
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, options, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
  EXPECT_EQ(CountFacts(db, "s"), 2u);
}

TEST(ChaseTest, ObliviousChaseDoesNotRefireSameTrigger) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X) -> exists ?Y s(?X, ?Y) .
    s(?X, ?Y) -> t(?X) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  ChaseOptions options;
  options.mode = ChaseOptions::Mode::kOblivious;
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, options, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
}

TEST(ChaseTest, RestrictedChaseTerminatesOnLoopWitness) {
  auto dict = Dict();
  // r(a,a) satisfies its own successor requirement: the restricted
  // chase fires nothing, while the oblivious chase diverges (bounded
  // only by the depth cap).
  Program program = Parse("r(?X, ?Y) -> exists ?Z r(?Y, ?Z) .", dict);
  Instance db(dict);
  db.AddFact("r", {"a", "a"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.nulls_created, 0u);

  Instance db2(dict);
  db2.AddFact("r", {"a", "a"});
  ChaseOptions oblivious;
  oblivious.mode = ChaseOptions::Mode::kOblivious;
  oblivious.max_null_depth = 4;
  ChaseStats stats2;
  ASSERT_TRUE(RunChase(program, &db2, oblivious, &stats2).ok());
  EXPECT_TRUE(stats2.truncated);
  EXPECT_EQ(stats2.nulls_created, 4u);
}

TEST(ChaseTest, RestrictedChaseDivergesWithoutWitnessUntilCap) {
  auto dict = Dict();
  // The classic non-terminating standard chase (every node needs a
  // *fresh* successor); the depth cap bounds it.
  Program program = Parse(R"(
    n(?X) -> exists ?Y e(?X, ?Y) .
    e(?X, ?Y) -> n(?Y) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("n", {"a"});
  ChaseOptions capped;
  capped.max_null_depth = 4;
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, capped, &stats).ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.nulls_created, 4u);
  EXPECT_GE(stats.nulls_created, 3u);
}

TEST(ChaseTest, HeadWithOnlyExistentialVarsSatisfiedByAnyFact) {
  auto dict = Dict();
  // ∃Y n(Y) is witnessed by n(a) itself under the restricted chase.
  Program program = Parse("n(?X) -> exists ?Y n(?Y) .", dict);
  Instance db(dict);
  db.AddFact("n", {"a"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(ChaseTest, StratifiedNegationComplement) {
  auto dict = Dict();
  Program program = Parse(R"(
    edge(?X, ?Y) -> reached(?Y) .
    node(?X), not reached(?X) -> source(?X) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("node", {"a"});
  db.AddFact("node", {"b"});
  db.AddFact("node", {"c"});
  db.AddFact("edge", {"a", "b"});
  db.AddFact("edge", {"b", "c"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "source"), 1u);
  EXPECT_TRUE(db.Contains(dict->Intern("source"),
                          {Term::Constant(dict->Intern("a"))}));
}

TEST(ChaseTest, MinMaxViaDoubleNegation) {
  auto dict = Dict();
  // The Π_aux idiom of Example 4.3.
  Program program = Parse(R"(
    succ0(?X, ?Y) -> less0(?X, ?Y) .
    succ0(?X, ?Y), less0(?Y, ?Z) -> less0(?X, ?Z) .
    less0(?X, ?Y) -> not_max(?X) .
    less0(?X, ?Y) -> not_min(?Y) .
    less0(?X, ?Y), not not_min(?X) -> zero0(?X) .
    less0(?Y, ?X), not not_max(?X) -> max0(?X) .
  )",
                          dict);
  Instance db(dict);
  for (int i = 0; i < 5; ++i) {
    db.AddFact("succ0", {std::to_string(i), std::to_string(i + 1)});
  }
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "zero0"), 1u);
  EXPECT_EQ(CountFacts(db, "max0"), 1u);
  EXPECT_TRUE(
      db.Contains(dict->Intern("zero0"), {Term::Constant(dict->Intern("0"))}));
  EXPECT_TRUE(
      db.Contains(dict->Intern("max0"), {Term::Constant(dict->Intern("5"))}));
}

TEST(ChaseTest, ConstraintViolationIsInconsistent) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X), q(?X) -> false .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("q", {"a"});
  Status status = RunChase(program, &db);
  EXPECT_EQ(status.code(), StatusCode::kInconsistent);
}

TEST(ChaseTest, ConstraintSatisfiedIsOk) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X), q(?X) -> false .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("q", {"b"});
  EXPECT_TRUE(RunChase(program, &db).ok());
}

TEST(ChaseTest, ConstraintSeesDerivedFacts) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X) -> q(?X) .
    q(?X), r(?X) -> false .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("r", {"a"});
  EXPECT_EQ(RunChase(program, &db).code(), StatusCode::kInconsistent);
}

TEST(ChaseTest, MultiHeadRuleInsertsAllAtoms) {
  auto dict = Dict();
  Program program = Parse(
      "t(?X, ?Y, ?Z) -> c(?X), c(?Y), c(?Z) .", dict);
  Instance db(dict);
  db.AddFact("t", {"a", "b", "c"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "c"), 3u);
}

TEST(ChaseTest, SharedExistentialAcrossHeadAtoms) {
  auto dict = Dict();
  // The coauthor rule of Section 2: one shared blank per match.
  Program program = Parse(R"(
    coauthor(?X, ?Y) -> exists ?Z author_of(?X, ?Z), author_of(?Y, ?Z) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("coauthor", {"aho", "ullman"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
  const Relation* rel = db.Find(dict->Intern("author_of"));
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_EQ(rel->tuple(0)[1], rel->tuple(1)[1]);  // same null
}

TEST(ChaseTest, MaxFactsCapAborts) {
  auto dict = Dict();
  Program program = Parse(R"(
    e(?X, ?Y) -> tc(?X, ?Y) .
    e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
  )",
                          dict);
  Instance db(dict);
  for (int i = 0; i < 100; ++i) {
    db.AddFact("e", {"v" + std::to_string(i), "v" + std::to_string(i + 1)});
  }
  ChaseOptions options;
  options.max_facts = 200;
  EXPECT_EQ(RunChase(program, &db, options).code(),
            StatusCode::kResourceExhausted);
}

TEST(ChaseTest, GroundFactsExcludeNulls) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y), t(?X) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  // Ground semantics Π(D)↓: p(c) and t(c) but not s(c, null).
  EXPECT_EQ(db.GroundFacts().size(), 2u);
  EXPECT_EQ(db.AllFacts().size(), 3u);
}

TEST(ChaseTest, NegationOverNullsIsSupported) {
  auto dict = Dict();
  // TriQ 1.0-style (non-grounded) negation: marked nulls are excluded.
  Program program = Parse(R"(
    p(?X) -> exists ?Y s(?X, ?Y) .
    s(?X, ?Y), q(?X) -> marked(?Y) .
    s(?X, ?Y), not marked(?Y) -> clean(?X) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("p", {"b"});
  db.AddFact("q", {"a"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "clean"), 1u);
  EXPECT_TRUE(db.Contains(dict->Intern("clean"),
                          {Term::Constant(dict->Intern("b"))}));
}

TEST(ChaseTest, EmptyDatabaseYieldsNothing) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> q(?X) .", dict);
  Instance db(dict);
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(db.TotalFacts(), 0u);
}

TEST(ChaseTest, ConstantsInRuleHeads) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> tagged(?X, special) .", dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_TRUE(db.Contains(dict->Intern("tagged"),
                          {Term::Constant(dict->Intern("a")),
                           Term::Constant(dict->Intern("special"))}));
}

TEST(ChaseTest, RepeatedVariableInBodyAtomFiltersMatches) {
  auto dict = Dict();
  Program program = Parse("e(?X, ?X) -> loop(?X) .", dict);
  Instance db(dict);
  db.AddFact("e", {"a", "a"});
  db.AddFact("e", {"a", "b"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "loop"), 1u);
}

}  // namespace
}  // namespace triq::chase
