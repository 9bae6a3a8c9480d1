#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "chase/chase.h"
#include "core/normalize.h"
#include "datalog/classify.h"
#include "datalog/parser.h"
#include "test_util.h"

namespace triq::datalog {
namespace {

using core::EliminateNegation;
using core::NormalizeSingleExistential;
using core::NormalizeWardedSplit;
using test::Dict;
using test::Parse;

/// Canonical rendering of the null-free facts over the predicates of
/// `original` — the preserved quantity of all Section 6.3 transforms.
std::string GroundSignature(const chase::Instance& db,
                            const Program& original) {
  std::unordered_set<PredicateId> preds = original.Predicates();
  std::vector<std::string> lines;
  for (const datalog::Atom& fact : db.GroundFacts()) {
    if (preds.count(fact.predicate) > 0) {
      lines.push_back(AtomToString(fact, db.dict()));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  for (const std::string& line : lines) out << line << '\n';
  return out.str();
}

void ExpectSameGroundSemantics(const Program& original,
                               const Program& transformed,
                               const chase::Instance& db) {
  chase::Instance d1(db.dict_ptr());
  chase::Instance d2(db.dict_ptr());
  for (const auto& [pred, rel] : db.relations()) {
    for (chase::TupleView t : rel.tuples()) {
      d1.AddFact(pred, t);
      d2.AddFact(pred, t);
    }
  }
  ASSERT_TRUE(chase::RunChase(original, &d1).ok());
  ASSERT_TRUE(chase::RunChase(transformed, &d2).ok());
  EXPECT_EQ(GroundSignature(d1, original), GroundSignature(d2, original));
}

TEST(SingleExistentialTest, SplitsDoubleInvention) {
  auto dict = Dict();
  Program program = Parse(
      "coauthor(?X, ?Y) -> exists ?Z ?W joint(?X, ?Y, ?Z, ?W) .", dict);
  Program normalized = NormalizeSingleExistential(program);
  // 1 rule with 2 existentials -> 2 chain rules + 1 final rule.
  EXPECT_EQ(normalized.size(), 3u);
  for (const Rule& rule : normalized.rules()) {
    EXPECT_LE(rule.ExistentialVariables().size(), 1u);
  }
}

TEST(SingleExistentialTest, LeavesSimpleRulesAlone) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X) -> exists ?Y s(?X, ?Y) .
    e(?X, ?Y) -> tc(?X, ?Y) .
  )",
                          dict);
  Program normalized = NormalizeSingleExistential(program);
  EXPECT_EQ(normalized.ToString(), program.ToString());
}

TEST(SingleExistentialTest, PreservesGroundSemantics) {
  auto dict = Dict();
  Program program = Parse(R"(
    pair(?X, ?Y) -> exists ?Z ?W link(?X, ?Z), link(?Y, ?W) .
    link(?X, ?Z), base(?X) -> good(?X) .
  )",
                          dict);
  chase::Instance db(dict);
  db.AddFact("pair", {"a", "b"});
  db.AddFact("base", {"a"});
  ExpectSameGroundSemantics(program, NormalizeSingleExistential(program), db);
}

TEST(SingleExistentialTest, PreservesWardedness) {
  auto dict = Dict();
  Program program = Parse(
      "person(?X) -> exists ?Y ?Z rel(?X, ?Y, ?Z) .", dict);
  EXPECT_TRUE(IsWarded(program));
  Program normalized = NormalizeSingleExistential(program);
  EXPECT_TRUE(IsWarded(normalized)) << IsWarded(normalized).reason;
}

TEST(WardedSplitTest, SplitsRuleWithHarmfulRest) {
  auto dict = Dict();
  // The ward val(?C, ?D) carries the dangerous ?D; the rest of the body
  // contains the harmful (but non-dangerous) ?H, so the Section 6.3
  // normalization must factor the rest through a head-grounded rule.
  Program program = Parse(R"(
    gen(?C) -> exists ?H val(?C, ?H) .
    val(?C, ?D), cfg(?C), val(?C2, ?H) -> out(?D) .
  )",
                          dict);
  Program split = NormalizeWardedSplit(program);
  EXPECT_GT(split.size(), program.size());
  // Every rule now has at most one body atom with harmful variables.
  Program positive = split.PositiveVersion();
  PositionAnalysis analysis(positive);
  for (const Rule& rule : split.rules()) {
    VariableClasses classes = analysis.Classify(rule);
    int harmful_atoms = 0;
    for (const Atom& a : rule.body) {
      std::vector<Term> vars;
      a.CollectVariables(&vars);
      bool harmful = std::any_of(vars.begin(), vars.end(), [&](Term v) {
        return !classes.IsHarmless(v);
      });
      if (harmful) ++harmful_atoms;
    }
    EXPECT_LE(harmful_atoms, 1)
        << RuleToString(rule, split.dict());
  }
}

TEST(WardedSplitTest, PreservesGroundSemantics) {
  auto dict = Dict();
  Program program = Parse(R"(
    start(?V) -> exists ?W succ(?V, ?W) .
    succ(?V, ?W), mark(?V), lab(?V, ?L) -> out(?L) .
  )",
                          dict);
  chase::Instance db(dict);
  db.AddFact("start", {"v1"});
  db.AddFact("mark", {"v1"});
  db.AddFact("lab", {"v1", "red"});
  db.AddFact("start", {"v2"});
  db.AddFact("lab", {"v2", "blue"});
  ExpectSameGroundSemantics(program, NormalizeWardedSplit(program), db);
}

TEST(WardedSplitTest, LeavesDatalogAlone) {
  auto dict = Dict();
  Program program = Parse(R"(
    e(?X, ?Y) -> tc(?X, ?Y) .
    e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
  )",
                          dict);
  Program split = NormalizeWardedSplit(program);
  EXPECT_EQ(split.ToString(), program.ToString());
}

TEST(EliminateNegationTest, ComplementIsMaterialized) {
  auto dict = Dict();
  Program program = Parse(R"(
    edge(?X, ?Y) -> reached(?Y) .
    node(?X), not reached(?X) -> source(?X) .
  )",
                          dict);
  chase::Instance db(dict);
  db.AddFact("node", {"a"});
  db.AddFact("node", {"b"});
  db.AddFact("edge", {"a", "b"});
  auto result = EliminateNegation(program, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto& [positive, augmented] = *result;
  // The rewritten program has no negation left.
  for (const Rule& rule : positive.rules()) {
    for (const Atom& a : rule.body) EXPECT_FALSE(a.negated);
  }
  // not~reached holds exactly the non-reached constants.
  const chase::Relation* comp =
      augmented.Find(dict->Intern("not~reached"));
  ASSERT_NE(comp, nullptr);
  EXPECT_TRUE(comp->Contains({chase::Term::Constant(dict->Intern("a"))}));
  EXPECT_FALSE(comp->Contains({chase::Term::Constant(dict->Intern("b"))}));
}

TEST(EliminateNegationTest, EquivalentOnStratifiedProgram) {
  auto dict = Dict();
  Program program = Parse(R"(
    succ0(?X, ?Y) -> less0(?X, ?Y) .
    succ0(?X, ?Y), less0(?Y, ?Z) -> less0(?X, ?Z) .
    less0(?X, ?Y) -> not_max(?X) .
    less0(?X, ?Y) -> not_min(?Y) .
    less0(?X, ?Y), not not_min(?X) -> zero0(?X) .
    less0(?Y, ?X), not not_max(?X) -> max0(?X) .
  )",
                          dict);
  chase::Instance db(dict);
  for (int i = 0; i < 4; ++i) {
    db.AddFact("succ0", {std::to_string(i), std::to_string(i + 1)});
  }
  auto result = EliminateNegation(program, db);
  ASSERT_TRUE(result.ok());
  auto& [positive, augmented] = *result;

  chase::Instance direct(dict);
  for (int i = 0; i < 4; ++i) {
    direct.AddFact("succ0", {std::to_string(i), std::to_string(i + 1)});
  }
  ASSERT_TRUE(chase::RunChase(program, &direct).ok());
  chase::Instance rewritten = augmented.CloneFacts();
  ASSERT_TRUE(chase::RunChase(positive, &rewritten).ok());
  EXPECT_EQ(GroundSignature(direct, program),
            GroundSignature(rewritten, program));
}

TEST(EliminateNegationTest, RejectsUnstratified) {
  auto dict = Dict();
  Program program = Parse(R"(
    n(?X), not q(?X) -> p(?X) .
    n(?X), not p(?X) -> q(?X) .
  )",
                          dict);
  chase::Instance db(dict);
  db.AddFact("n", {"a"});
  EXPECT_FALSE(EliminateNegation(program, db).ok());
}

TEST(EliminateNegationTest, ZeroAryNegation) {
  auto dict = Dict();
  Program program = Parse(R"(
    trigger(?X) -> flag() .
    item(?X), not flag() -> lonely(?X) .
  )",
                          dict);
  chase::Instance db(dict);
  db.AddFact("item", {"a"});
  auto result = EliminateNegation(program, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto& [positive, augmented] = *result;
  chase::Instance out = augmented.CloneFacts();
  ASSERT_TRUE(chase::RunChase(positive, &out).ok());
  EXPECT_NE(out.Find(dict->Intern("lonely")), nullptr);
}

}  // namespace
}  // namespace triq::datalog
