#include <gtest/gtest.h>

#include <memory>

#include "core/triq.h"
#include "core/workloads.h"
#include "datalog/parser.h"
#include "translate/owl2ql_program.h"
#include "test_util.h"

namespace triq::core {
namespace {

using test::Dict;
using test::Parse;

TEST(TriqQueryTest, RejectsAnswerPredicateInBody) {
  auto dict = Dict();
  datalog::Program program = Parse(R"(
    e(?X, ?Y) -> q(?X, ?Y) .
    e(?X, ?Y), q(?Y, ?Z) -> q(?X, ?Z) .
  )",
                                   dict);
  EXPECT_FALSE(TriqQuery::Create(std::move(program), "q").ok());
}

TEST(TriqQueryTest, EvaluateReturnsConstantTuplesOnly) {
  auto dict = Dict();
  datalog::Program program = Parse(R"(
    p(?X) -> exists ?Y s(?X, ?Y) .
    s(?X, ?Y) -> q(?X, ?Y) .
  )",
                                   dict);
  auto query = TriqQuery::Create(std::move(program), "q");
  ASSERT_TRUE(query.ok());
  chase::Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("s", {"b", "c"});
  auto answers = query->Evaluate(db);
  ASSERT_TRUE(answers.ok());
  // q(b,c) is all-constant; q(a, null) is filtered per Section 3.2.
  EXPECT_EQ(answers->size(), 1u);
}

TEST(TriqQueryTest, EvaluateDoesNotMutateInput) {
  auto dict = Dict();
  datalog::Program program = Parse("p(?X) -> q(?X) .", dict);
  auto query = TriqQuery::Create(std::move(program), "q");
  ASSERT_TRUE(query.ok());
  chase::Instance db(dict);
  db.AddFact("p", {"a"});
  size_t before = db.TotalFacts();
  ASSERT_TRUE(query->Evaluate(db).ok());
  EXPECT_EQ(db.TotalFacts(), before);
}

TEST(TriqQueryTest, InconsistencyIsSurfaced) {
  auto dict = Dict();
  datalog::Program program = Parse(R"(
    p(?X) -> mid(?X) .
    mid(?X) -> q(?X) .
    mid(?X), bad(?X) -> false .
  )",
                                   dict);
  auto query = TriqQuery::Create(std::move(program), "q");
  ASSERT_TRUE(query.ok());
  chase::Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("bad", {"a"});
  auto answers = query->Evaluate(db);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInconsistent);
}

TEST(TriqQueryTest, HoldsChecksMembership) {
  auto dict = Dict();
  datalog::Program program = Parse(R"(
    e(?X, ?Y) -> tc(?X, ?Y) .
    e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
    tc(?X, ?Y) -> q(?X, ?Y) .
  )",
                                   dict);
  auto query = TriqQuery::Create(std::move(program), "q");
  ASSERT_TRUE(query.ok());
  chase::Instance db(dict);
  db.AddFact("e", {"a", "b"});
  db.AddFact("e", {"b", "c"});
  EXPECT_TRUE(*query->Holds(db, {"a", "c"}));
  EXPECT_FALSE(*query->Holds(db, {"c", "a"}));
  // A constant the dictionary never saw is in no answer, and the probe
  // leaves the dictionary as it was.
  const size_t symbols = dict->size();
  auto unknown = query->Holds(db, {"a", "never_interned"});
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(*unknown);
  EXPECT_EQ(dict->size(), symbols);
}

TEST(TriqQueryTest, ClassifyPlainDatalog) {
  auto dict = Dict();
  auto query = TriqQuery::Create(TransitiveClosureProgram(dict), "tc");
  // tc occurs in a body — wrap instead.
  datalog::Program program = Parse(R"(
    e(?X, ?Y) -> tc(?X, ?Y) .
    e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
    tc(?X, ?Y) -> q(?X, ?Y) .
  )",
                                   dict);
  auto wrapped = TriqQuery::Create(std::move(program), "q");
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->Classify(), Language::kDatalog);
}

TEST(TriqQueryTest, ClassifyTriqLite) {
  auto dict = Dict();
  datalog::Program program = translate::BuildOwl2QlCoreProgram(dict);
  ASSERT_TRUE(program.Append(Parse("C(?X) -> q(?X) .", dict)).ok());
  auto query = TriqQuery::Create(std::move(program), "q");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Classify(), Language::kTriqLite10);
}

TEST(TriqQueryTest, ClassifyTriq10) {
  auto dict = Dict();
  auto query = TriqQuery::Create(CliqueProgram(dict), "yes");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Classify(), Language::kTriq10);
}

TEST(TriqQueryTest, ClassifyUnrestricted) {
  auto dict = Dict();
  datalog::Program program = Parse(R"(
    p(?X) -> exists ?Y s(?X, ?Y) .
    s(?X1, ?Y), s(?X2, ?Z) -> q(?Y, ?Z) .
  )",
                                   dict);
  auto query = TriqQuery::Create(std::move(program), "q");
  ASSERT_TRUE(query.ok());
  // ?Y and ?Z are both dangerous but live in different atoms: no guard
  // exists, so the query is outside TriQ 1.0.
  EXPECT_EQ(query->Classify(), Language::kUnrestricted);
}

TEST(TriqQueryTest, LanguageNames) {
  EXPECT_EQ(LanguageName(Language::kTriqLite10), "TriQ-Lite 1.0");
  EXPECT_EQ(LanguageName(Language::kTriq10), "TriQ 1.0");
}

}  // namespace
}  // namespace triq::core
