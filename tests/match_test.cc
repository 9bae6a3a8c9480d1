#include <gtest/gtest.h>

#include <memory>

#include "chase/match.h"
#include "datalog/parser.h"

namespace triq::chase {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

datalog::Rule ParseR(std::string_view text, Dictionary* dict) {
  auto rule = datalog::ParseRule(text, dict);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return std::move(rule).value();
}

size_t CountMatches(const datalog::Rule& rule, const Instance& db,
                    const MatchOptions& options = {}) {
  size_t count = 0;
  Status status = MatchBody(rule, db, options, [&](const Match&) {
    ++count;
    return true;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return count;
}

TEST(MatchTest, SimpleJoin) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("e", {"a", "b"});
  db.AddFact("e", {"b", "c"});
  db.AddFact("e", {"c", "d"});
  datalog::Rule rule = ParseR("e(?X, ?Y), e(?Y, ?Z) -> path(?X, ?Z)",
                              dict.get());
  EXPECT_EQ(CountMatches(rule, db), 2u);  // a-b-c and b-c-d
}

TEST(MatchTest, ConstantsInBodyFilter) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("e", {"a", "b"});
  db.AddFact("e", {"a", "c"});
  db.AddFact("e", {"b", "c"});
  datalog::Rule rule = ParseR("e(a, ?Y) -> from_a(?Y)", dict.get());
  EXPECT_EQ(CountMatches(rule, db), 2u);
}

TEST(MatchTest, EarlyTerminationViaCallback) {
  auto dict = Dict();
  Instance db(dict);
  for (int i = 0; i < 100; ++i) {
    db.AddFact("p", {"c" + std::to_string(i)});
  }
  datalog::Rule rule = ParseR("p(?X) -> q(?X)", dict.get());
  size_t seen = 0;
  ASSERT_TRUE(MatchBody(rule, db, {}, [&](const Match&) {
    ++seen;
    return seen < 3;
  }).ok());
  EXPECT_EQ(seen, 3u);
}

TEST(MatchTest, DeltaConstraintRestrictsOneAtom) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("e", {"a", "b"});  // index 0
  db.AddFact("e", {"b", "c"});  // index 1
  db.AddFact("e", {"c", "d"});  // index 2
  datalog::Rule rule = ParseR("e(?X, ?Y), e(?Y, ?Z) -> p(?X, ?Z)",
                              dict.get());
  MatchOptions options;
  options.delta_body_index = 0;  // first atom restricted to new facts
  options.delta_begin = 2;       // only e(c, d)
  // Only (c,d) can play the first role; no (d, ?) edge exists.
  EXPECT_EQ(CountMatches(rule, db, options), 0u);
  options.delta_begin = 1;  // e(b,c) and e(c,d) as first atom
  EXPECT_EQ(CountMatches(rule, db, options), 1u);  // b-c-d
}

TEST(MatchTest, DeltaEndCapsTheDeltaWindow) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("e", {"a", "b"});  // index 0
  db.AddFact("e", {"b", "c"});  // index 1
  db.AddFact("e", {"c", "d"});  // index 2
  datalog::Rule rule = ParseR("e(?X, ?Y) -> p(?X)", dict.get());
  MatchOptions options;
  options.delta_body_index = 0;
  options.delta_begin = 1;
  options.delta_end = 2;  // only e(b, c)
  EXPECT_EQ(CountMatches(rule, db, options), 1u);
}

TEST(MatchTest, AtomEndWindowsPartitionRepeatedPredicates) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("e", {"a", "b"});  // index 0: "old"
  db.AddFact("e", {"b", "c"});  // index 1: "delta"
  db.AddFact("e", {"c", "d"});  // index 2: next round's delta
  datalog::Rule rule = ParseR("e(?X, ?Y), e(?Y, ?Z) -> p(?X, ?Z)",
                              dict.get());
  // Pass with delta on atom 0: atom 1 may read everything up to the
  // round snapshot (index < 2) -> no join partner for (b,c).
  MatchOptions pass0;
  pass0.delta_body_index = 0;
  pass0.delta_begin = 1;
  pass0.delta_end = 2;
  pass0.atom_end = {kNoTupleLimit, 2};
  EXPECT_EQ(CountMatches(rule, db, pass0), 0u);
  // Pass with delta on atom 1: atom 0 reads only pre-round facts
  // (index < 1), so exactly the match a-b-c remains.
  MatchOptions pass1;
  pass1.delta_body_index = 1;
  pass1.delta_begin = 1;
  pass1.delta_end = 2;
  pass1.atom_end = {1, kNoTupleLimit};
  EXPECT_EQ(CountMatches(rule, db, pass1), 1u);
}

TEST(MatchTest, UnsafeNegationSurfacesInvalidArgument) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("p", {"a"});
  // Hand-built unsafe rule (?Y never bound by a positive atom); the
  // parser/Program reject it, so build the Rule directly.
  datalog::Rule rule;
  datalog::Atom pos;
  pos.predicate = dict->Intern("p");
  pos.args = {Term::Variable(dict->Intern("?X"))};
  datalog::Atom neg;
  neg.predicate = dict->Intern("q");
  neg.args = {Term::Variable(dict->Intern("?Y"))};
  neg.negated = true;
  datalog::Atom head;
  head.predicate = dict->Intern("r");
  head.args = {Term::Variable(dict->Intern("?X"))};
  rule.body = {pos, neg};
  rule.head = {head};
  size_t emitted = 0;
  Status status = MatchBody(rule, db, {}, [&](const Match&) {
    ++emitted;
    return true;
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(emitted, 0u);
  // Program construction already rejects the unsafe rule up front.
  datalog::Program program(dict);
  EXPECT_EQ(program.AddRule(rule).code(), StatusCode::kInvalidArgument);
}

TEST(MatchTest, SeedBindingRestrictsVariables) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("e", {"a", "b"});
  db.AddFact("e", {"a", "c"});
  datalog::Rule rule = ParseR("e(?X, ?Y) -> p(?Y)", dict.get());
  Binding seed;
  seed.Bind(Term::Variable(dict->Intern("?Y")),
            Term::Constant(dict->Intern("c")));
  MatchOptions options;
  options.seed = &seed;
  EXPECT_EQ(CountMatches(rule, db, options), 1u);
}

TEST(MatchTest, NegatedAtomFiltersBoundTuples) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("p", {"b"});
  db.AddFact("blocked", {"a"});
  datalog::Rule rule = ParseR("p(?X), not blocked(?X) -> ok(?X)",
                              dict.get());
  EXPECT_EQ(CountMatches(rule, db), 1u);
}

TEST(MatchTest, MissingRelationYieldsNoMatches) {
  auto dict = Dict();
  Instance db(dict);
  datalog::Rule rule = ParseR("ghost(?X) -> q(?X)", dict.get());
  EXPECT_EQ(CountMatches(rule, db), 0u);
}

TEST(MatchTest, ArityMismatchIsSafe) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("p", {"a", "b"});  // binary extension
  datalog::Rule rule = ParseR("p(?X) -> q(?X)", dict.get());  // unary atom
  EXPECT_EQ(CountMatches(rule, db), 0u);
}

TEST(MatchTest, PositiveFactRefsAlignWithBodyOrder) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("a_rel", {"x"});
  db.AddFact("b_rel", {"x"});
  datalog::Rule rule = ParseR("a_rel(?X), b_rel(?X) -> q(?X)", dict.get());
  ASSERT_TRUE(MatchBody(rule, db, {}, [&](const Match& match) {
    EXPECT_EQ(match.positive_facts->size(), 2u);
    EXPECT_EQ((*match.positive_facts)[0].predicate, dict->Intern("a_rel"));
    EXPECT_EQ((*match.positive_facts)[1].predicate, dict->Intern("b_rel"));
    return true;
  }).ok());
}

TEST(MatchTest, HasMatchFindsWitness) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("s", {"a", "b"});
  datalog::Atom atom;
  atom.predicate = dict->Intern("s");
  atom.args = {Term::Constant(dict->Intern("a")),
               Term::Variable(dict->Intern("?Y"))};
  EXPECT_TRUE(HasMatch({atom}, db, Binding()));
  Binding seed;
  seed.Bind(Term::Variable(dict->Intern("?Y")),
            Term::Constant(dict->Intern("zzz")));
  EXPECT_FALSE(HasMatch({atom}, db, seed));
}

/// Golden EXPLAIN text: pins the whole ExplainMatchPlan output — the
/// strategy line, then per join depth the atom, its access path, the
/// planner's rows~ estimate and the window — for plans that between them
/// show every access path and both strategy suffixes.
TEST(MatchTest, ExplainMatchPlanGolden) {
  auto dict = Dict();
  Instance db(dict);
  auto node = [](int i) { return "n" + std::to_string(i); };
  for (int i = 0; i < 48; ++i) db.AddFact("e", {node(i), node(i + 1)});
  for (int i = 0; i < 48; i += 3) db.AddFact("e", {node(i + 2), node(i)});
  for (int i = 0; i < 40; ++i) db.AddFact("f", {node(i), node(i % 8)});
  for (int i = 0; i < 6; ++i) db.AddFact("h", {node(i), node(i + 1)});

  auto explain = [&](std::string_view rule_text, const MatchOptions& options) {
    return ExplainMatchPlan(ParseR(rule_text, dict.get()), db, options);
  };

  MatchOptions delta;
  delta.delta_body_index = 1;
  delta.delta_begin = 40;
  delta.delta_end = 60;
  delta.atom_end = {40, 0};
  delta.join_strategy = JoinStrategy::kHash;
  EXPECT_EQ(explain("e(?X, ?Y), e(?Y, ?Z) -> p(?X, ?Z)", delta),
            "  strategy: hash (forced)\n"
            "  0: e(?Y, ?Z)  delta-scan  rows~20 (window 20)\n"
            "  1: e(?X, ?Y)  postings  rows~0.902 (window 40)\n");

  EXPECT_EQ(explain("e(?X, ?Y) -> q(?X)", {}),
            "  strategy: hash (auto)\n"
            "  0: e(?X, ?Y)  scan  rows~64 (window 64)\n");

  MatchOptions hash;
  hash.join_strategy = JoinStrategy::kHash;
  EXPECT_EQ(explain("e(?X, ?Y), f(?X, ?Y) -> q(?X)", hash),
            "  strategy: hash (forced)\n"
            "  0: f(?X, ?Y)  scan  rows~40 (window 40)\n"
            "  1: e(?X, ?Y)  find-index  rows~0.0325 (window 64)\n");

  EXPECT_EQ(explain("e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)", {}),
            "  strategy: merge (auto)\n"
            "  0: f(?Y, ?Z)  sorted-scan(pos 0)  rows~40 (window 40)\n"
            "  1: e(?X, ?Y)  merge-cursor(pos 1)  rows~1.44 (window 64)\n");

  MatchOptions merge;
  merge.join_strategy = JoinStrategy::kMerge;
  EXPECT_EQ(explain("h(?X, ?Y), e(?Y, ?Z) -> g(?X, ?Z)", merge),
            "  strategy: merge (forced)\n"
            "  0: h(?X, ?Y)  sorted-scan(pos 1)  rows~6 (window 6)\n"
            "  1: e(?Y, ?Z)  merge-cursor(pos 0)  rows~1.44 (window 64)\n");

  EXPECT_EQ(explain("e(n3, ?Y), f(?Y, ?Z) -> r(?Z)", {}),
            "  strategy: hash (auto)\n"
            "  0: e(n3, ?Y)  postings  rows~1.44 (window 64)\n"
            "  1: f(?Y, ?Z)  postings  rows~1.09 (window 40)\n");

  EXPECT_EQ(explain(
                "e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X), f(?X, ?W) -> t(?X, ?W)", {}),
            "  strategy: leapfrog (auto)\n"
            "  0: f(?X, ?W)  scan  rows~40 (window 40)\n"
            "  1: e(?X, ?Y)  leapfrog[0,1]  rows~1.44 (window 64)\n"
            "  2: e(?Y, ?Z)  leapfrog[0,1]  rows~1.44 (window 64)\n"
            "  3: e(?Z, ?X)  leapfrog[1,0]  rows~0.0325 (window 64)\n");

  EXPECT_EQ(explain("e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X), h(?X, ?Y) -> t(?X)",
                    {}),
            "  strategy: leapfrog (auto)\n"
            "  0: h(?X, ?Y)  scan  rows~6 (window 6)\n"
            "  1: e(?X, ?Y)  find-index  rows~0.0325 (window 64)\n"
            "  2: e(?Y, ?Z)  leapfrog[0,1]  rows~1.44 (window 64)\n"
            "  3: e(?Z, ?X)  leapfrog[1,0]  rows~0.0325 (window 64)\n");

  MatchOptions leapfrog;
  leapfrog.join_strategy = JoinStrategy::kLeapfrog;
  EXPECT_EQ(explain("f(?X, ?Y), e(?Y, ?Z) -> g(?X, ?Z)", leapfrog),
            "  strategy: leapfrog (forced)\n"
            "  0: f(?X, ?Y)  scan  rows~40 (window 40)\n"
            "  1: e(?Y, ?Z)  leapfrog[0,1]  rows~1.44 (window 64)\n");

  // A seed binding every position of the driver: depth 0 reads through
  // its bound positions.
  Binding seed;
  seed.Bind(Term::Variable(dict->Intern("?X")),
            Term::Constant(dict->Intern("n1")));
  seed.Bind(Term::Variable(dict->Intern("?Y")),
            Term::Constant(dict->Intern("n2")));
  MatchOptions seeded;
  seeded.seed = &seed;
  EXPECT_EQ(explain("e(?X, ?Y), f(?Y, ?Z) -> q(?Z)", seeded),
            "  strategy: hash (auto)\n"
            "  0: e(?X, ?Y)  postings  rows~0.0325 (window 64)\n"
            "  1: f(?Y, ?Z)  postings  rows~1.09 (window 40)\n");
}

TEST(BindingTest, ApplyAndPop) {
  auto dict = Dict();
  Binding b;
  Term x = Term::Variable(dict->Intern("?X"));
  Term a = Term::Constant(dict->Intern("a"));
  EXPECT_EQ(b.Apply(x), x);  // unbound passes through
  b.Bind(x, a);
  EXPECT_EQ(b.Apply(x), a);
  EXPECT_EQ(b.Apply(a), a);
  b.PopTo(0);
  EXPECT_FALSE(b.IsBound(x));
}

}  // namespace
}  // namespace triq::chase
