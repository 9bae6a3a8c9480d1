#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "translate/sparql_to_datalog.h"

namespace triq::sparql {
namespace {

using test::Dict;

std::unique_ptr<GraphPattern> Parse(std::string_view text, Dictionary* dict) {
  auto pattern = ParsePattern(text, dict);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return std::move(pattern).value();
}

rdf::Graph AuthorsGraph(std::shared_ptr<Dictionary> dict) {
  rdf::Graph g(std::move(dict));
  g.Add("dbUllman", "is_author_of", "\"The Complete Book\"");
  g.Add("dbUllman", "name", "\"Jeffrey Ullman\"");
  g.Add("dbAho", "name", "\"Alfred Aho\"");
  g.Add("dbAho", "phone", "\"555\"");
  return g;
}

TEST(SparqlEvalTest, BasicPatternJoin) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  // Query (1) of Section 2.
  auto p = Parse("{ ?Y is_author_of ?Z . ?Y name ?X }", dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);
  const SparqlMapping& m = result.mappings()[0];
  EXPECT_EQ(dict->Text(m.Get(dict->Intern("?X"))), "\"Jeffrey Ullman\"");
}

TEST(SparqlEvalTest, SelectProjects) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  auto p = Parse("SELECT(?X, { ?Y is_author_of ?Z . ?Y name ?X })",
                 dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.mappings()[0].size(), 1u);
}

TEST(SparqlEvalTest, BlankNodeActsAsExistential) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  // P2 of Example 5.1: who has a name.
  auto p = Parse("{ ?X name _:B }", dict.get());
  MappingSet result = Evaluate(*p, g);
  EXPECT_EQ(result.size(), 2u);
  for (const SparqlMapping& m : result.mappings()) {
    EXPECT_EQ(m.size(), 1u);  // blank is projected away
  }
}

TEST(SparqlEvalTest, SharedBlankNodeJoins) {
  auto dict = Dict();
  rdf::Graph g(dict);
  g.Add("a", "p", "x");
  g.Add("x", "q", "b");
  g.Add("y", "q", "c");
  auto p = Parse("{ ?X p _:B . _:B q ?Y }", dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(dict->Text(result.mappings()[0].Get(dict->Intern("?Y"))), "b");
}

TEST(SparqlEvalTest, UnionCombines) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  auto p = Parse("UNION({ ?X is_author_of ?Z }, { ?X phone ?Z })",
                 dict.get());
  MappingSet result = Evaluate(*p, g);
  EXPECT_EQ(result.size(), 2u);
}

TEST(SparqlEvalTest, OptKeepsUnmatchedLeft) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  // P3 of Example 5.1: names, optionally phones.
  auto p = Parse("OPT({ ?X name ?Y }, { ?X phone ?Z })", dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 2u);
  SymbolId z = dict->Intern("?Z");
  int with_phone = 0;
  for (const SparqlMapping& m : result.mappings()) {
    if (m.IsBound(z)) ++with_phone;
  }
  EXPECT_EQ(with_phone, 1);
}

TEST(SparqlEvalTest, OptIsNotSymmetric) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  auto p = Parse("OPT({ ?X phone ?Z }, { ?X name ?Y })", dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);  // only dbAho has a phone
  EXPECT_TRUE(result.mappings()[0].IsBound(dict->Intern("?Y")));
}

TEST(SparqlEvalTest, CartesianProductOnDisjointVars) {
  // The P4 phenomenon of Example 5.1: unbound ?Z joins with everything.
  auto dict = Dict();
  rdf::Graph g(dict);
  g.Add("a", "name", "n1");
  g.Add("b", "name", "n2");
  g.Add("p1", "phone_company", "acme");
  g.Add("p2", "phone_company", "bell");
  auto p = Parse(
      "AND(OPT({ ?X name ?Y }, { ?X phone ?Z }),"
      "    { ?Z phone_company ?W })",
      dict.get());
  MappingSet result = Evaluate(*p, g);
  // No phones: every name pairs with every phone company: 2 x 2.
  EXPECT_EQ(result.size(), 4u);
}

TEST(SparqlEvalTest, FilterBound) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  auto p = Parse("FILTER(OPT({ ?X name ?Y }, { ?X phone ?Z }), bound(?Z))",
                 dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(dict->Text(result.mappings()[0].Get(dict->Intern("?X"))),
            "dbAho");
}

TEST(SparqlEvalTest, FilterNotBound) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  auto p = Parse(
      "FILTER(OPT({ ?X name ?Y }, { ?X phone ?Z }), ! bound(?Z))",
      dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(dict->Text(result.mappings()[0].Get(dict->Intern("?X"))),
            "dbUllman");
}

TEST(SparqlEvalTest, FilterEqConst) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  auto p = Parse("FILTER({ ?X name ?Y }, ?X = dbAho)", dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);
}

TEST(SparqlEvalTest, FilterEqVar) {
  auto dict = Dict();
  rdf::Graph g(dict);
  g.Add("a", "p", "a");
  g.Add("a", "p", "b");
  auto p = Parse("FILTER({ ?X p ?Y }, ?X = ?Y)", dict.get());
  MappingSet result = Evaluate(*p, g);
  ASSERT_EQ(result.size(), 1u);
}

TEST(SparqlEvalTest, FilterBooleanConnectives) {
  auto dict = Dict();
  rdf::Graph g = AuthorsGraph(dict);
  auto p = Parse(
      "FILTER({ ?X name ?Y }, (?X = dbAho || ?X = dbUllman))", dict.get());
  EXPECT_EQ(Evaluate(*p, g).size(), 2u);
  auto p2 = Parse(
      "FILTER({ ?X name ?Y }, (?X = dbAho && ?X = dbUllman))", dict.get());
  EXPECT_EQ(Evaluate(*p2, g).size(), 0u);
}

TEST(SparqlEvalTest, EmptyGraphGivesEmptyAnswers) {
  auto dict = Dict();
  rdf::Graph g(dict);
  auto p = Parse("{ ?X name ?Y }", dict.get());
  EXPECT_EQ(Evaluate(*p, g).size(), 0u);
}

TEST(SparqlMappingTest, CompatibilityAndMerge) {
  auto dict = Dict();
  SymbolId x = dict->Intern("?X"), y = dict->Intern("?Y"),
           z = dict->Intern("?Z");
  SymbolId a = dict->Intern("a"), b = dict->Intern("b");
  SparqlMapping m1, m2, m3;
  m1.Bind(x, a);
  m1.Bind(y, b);
  m2.Bind(y, b);
  m2.Bind(z, a);
  m3.Bind(y, a);
  EXPECT_TRUE(SparqlMapping::Compatible(m1, m2));
  EXPECT_FALSE(SparqlMapping::Compatible(m1, m3));
  SparqlMapping merged = SparqlMapping::Merge(m1, m2);
  EXPECT_EQ(merged.size(), 3u);
  // The empty mapping is compatible with everything.
  EXPECT_TRUE(SparqlMapping::Compatible(SparqlMapping(), m1));
}

TEST(SparqlMappingTest, AlgebraOnSmallSets) {
  auto dict = Dict();
  SymbolId x = dict->Intern("?X"), y = dict->Intern("?Y");
  SymbolId a = dict->Intern("a"), b = dict->Intern("b"),
           c = dict->Intern("c");
  MappingSet o1, o2;
  SparqlMapping m1, m2, m3;
  m1.Bind(x, a);
  o1.Insert(m1);
  m2.Bind(x, a);
  m2.Bind(y, b);
  o2.Insert(m2);
  m3.Bind(x, c);
  o1.Insert(m3);
  EXPECT_FALSE(o1.Insert(m1));  // already present
  EXPECT_EQ(o1.size(), 2u);
  EXPECT_EQ(Join(o1, o2).size(), 1u);        // only x=a joins
  EXPECT_EQ(Union(o1, o2).size(), 3u);
  EXPECT_EQ(Union(o1, MappingSet({m3})).size(), 2u);  // x=c once
  EXPECT_EQ(Difference(o1, o2).size(), 1u);  // x=c has no partner
  EXPECT_EQ(LeftOuterJoin(o1, o2).size(), 2u);
}

TEST(SparqlParserTest, VariablesCoverBothSidesOfOpt) {
  auto dict = Dict();
  auto p = Parse("OPT({ ?X name ?Y }, { ?X phone ?Z })", dict.get());
  EXPECT_EQ(p->Variables().size(), 3u);
}

TEST(SparqlParserTest, RejectsMalformed) {
  auto dict = Dict();
  EXPECT_FALSE(ParsePattern("AND({ ?X p ?Y }", dict.get()).ok());
  EXPECT_FALSE(ParsePattern("{ ?X p }", dict.get()).ok());
  EXPECT_FALSE(ParsePattern("BOGUS({ ?X p ?Y }, { ?X q ?Z })",
                            dict.get())
                   .ok());
  EXPECT_FALSE(ParsePattern("SELECT(, { ?X p ?Y })", dict.get()).ok());
}

/// `terms` copies of `?x = a` joined by `op` into one left-deep chain.
std::string Chain(size_t terms, const std::string& op) {
  std::string out = "?x = a";
  for (size_t i = 1; i < terms; ++i) out += " " + op + " ?x = a";
  return out;
}

TEST(SparqlParserTest, RejectsPatternsNestedPastTheBound) {
  // Each of these once overflowed the stack in ParsePattern or in
  // TranslatePattern; all must fail cleanly instead.
  const std::string filter = "FILTER({ ?x p ?y }, ";
  const std::string too_deep[] = {
      filter + std::string(30000, '(') + "?x = a" +
          std::string(30000, ')') + ")",
      [] {
        std::string nested;
        for (int i = 0; i < 30000; ++i) nested += "AND(";
        nested += "{ ?x p ?y }";
        for (int i = 0; i < 30000; ++i) nested += ", { ?x p ?y })";
        return nested;
      }(),
      filter + std::string(100000, '!') + "bound(?x))",
      filter + Chain(30000, "||") + ")",
  };
  for (const std::string& text : too_deep) {
    auto dict = Dict();
    auto pattern = ParsePattern(text, dict.get());
    ASSERT_FALSE(pattern.ok()) << text.substr(0, 40);
    EXPECT_EQ(pattern.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(pattern.status().message().find("nests deeper than"),
              std::string::npos)
        << pattern.status().ToString();
  }
}

TEST(SparqlParserTest, AcceptsPatternsNestedToTheBound) {
  // The FILTER operator is one level, so a chain of kMaxPatternDepth
  // terms (kMaxPatternDepth - 1 operators) reaches the bound exactly.
  auto dict = Dict();
  auto at_bound = ParsePattern(
      "FILTER({ ?x p ?y }, " + Chain(kMaxPatternDepth, "&&") + ")",
      dict.get());
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  auto translated = translate::TranslatePattern(**at_bound, dict, {});
  EXPECT_TRUE(translated.ok()) << translated.status().ToString();

  auto past_bound = ParsePattern(
      "FILTER({ ?x p ?y }, " + Chain(kMaxPatternDepth + 1, "&&") + ")",
      dict.get());
  EXPECT_EQ(past_bound.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparqlParserTest, ToStringRoundTrips) {
  auto dict = Dict();
  auto p = Parse(
      "FILTER(OPT({ ?X name ?Y }, { ?X phone ?Z }), bound(?Z))", dict.get());
  auto p2 = Parse(p->ToString(*dict), dict.get());
  EXPECT_EQ(p2->ToString(*dict), p->ToString(*dict));
}

}  // namespace
}  // namespace triq::sparql
