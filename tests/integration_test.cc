// End-to-end scenarios combining every layer of the stack, mirroring
// the paper's running narrative: ontologies serialized per Table 1,
// SPARQL patterns translated under all three regimes, chased, decoded,
// classified, normalized, and explained via proof trees.
#include <gtest/gtest.h>

#include <memory>

#include "chase/proof_tree.h"
#include "core/normalize.h"
#include "core/triq.h"
#include "core/workloads.h"
#include "datalog/classify.h"
#include "datalog/parser.h"
#include "owl/generator.h"
#include "owl/rdf_mapping.h"
#include "rdf/turtle.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "translate/owl2ql_program.h"
#include "translate/sparql_to_datalog.h"
#include "translate/vocab_rules.h"

namespace triq {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

TEST(IntegrationTest, TurtleToEntailmentAnswer) {
  // Graph in Turtle -> pattern under the All regime -> answers.
  auto dict = Dict();
  rdf::Graph g(dict);
  ASSERT_TRUE(rdf::ParseTurtle(R"(
    dog rdf:type animal .
    animal rdfs:subClassOf some:eats .
    some:eats rdf:type owl:Restriction .
    some:eats owl:onProperty eats .
    some:eats owl:someValuesFrom owl:Thing .
  )",
                               &g)
                  .ok());
  auto pattern = sparql::ParsePattern("{ ?X eats _:B }", dict.get());
  ASSERT_TRUE(pattern.ok());
  translate::TranslationOptions options;
  options.regime = translate::Regime::kAll;
  auto translated = TranslatePattern(**pattern, dict, options);
  ASSERT_TRUE(translated.ok());
  auto answers = EvaluateTranslated(*translated, g);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ(dict->Text(answers->mappings()[0].Get(dict->Intern("?X"))),
            "dog");
}

TEST(IntegrationTest, RegimeProgramSurvivesNormalization) {
  // The fixed τ_owl2ql_core program stays warded and equivalent after
  // both Section 6.3 normalizations — composing the paper's machinery.
  auto dict = Dict();
  owl::Ontology o = owl::ChainOntology(3, dict.get());
  rdf::Graph g(dict);
  OntologyToGraph(o, &g);

  datalog::Program program = translate::BuildOwl2QlCoreProgram(dict);
  datalog::Program normalized = core::NormalizeWardedSplit(
      core::NormalizeSingleExistential(program));
  EXPECT_TRUE(datalog::IsWarded(normalized))
      << datalog::IsWarded(normalized).reason;

  auto ground = [&](const datalog::Program& p) {
    chase::Instance db = chase::Instance::FromGraph(g);
    EXPECT_TRUE(RunChase(p, &db).ok());
    std::vector<std::string> lines;
    std::unordered_set<datalog::PredicateId> preds = program.Predicates();
    for (const datalog::Atom& fact : db.GroundFacts()) {
      if (preds.count(fact.predicate) > 0) {
        lines.push_back(AtomToString(fact, *dict));
      }
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(ground(program), ground(normalized));
}

TEST(IntegrationTest, SparqlAlgebraAgreesUnderPlainRegimeOnOntologyGraph) {
  // Theorem 5.2 on a Table 1-serialized ontology graph (no reasoning).
  auto dict = Dict();
  owl::RandomOntologyOptions oo;
  oo.seed = 3;
  owl::Ontology o = RandomOntology(oo, dict.get());
  rdf::Graph g(dict);
  OntologyToGraph(o, &g);
  auto pattern = sparql::ParsePattern(
      "SELECT(?X ?C, OPT({ ?X rdf:type ?C }, { ?X prop0 ?Y }))", dict.get());
  ASSERT_TRUE(pattern.ok());
  sparql::MappingSet direct = Evaluate(**pattern, g);
  translate::TranslationOptions options;
  options.regime = translate::Regime::kPlain;
  auto translated = TranslatePattern(**pattern, dict, options);
  ASSERT_TRUE(translated.ok());
  auto mapped = EvaluateTranslated(*translated, g);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(direct == *mapped);
}

TEST(IntegrationTest, ProofTreeForEntailedTriple) {
  // Why is dbAho an author? Extract the derivation from the regime
  // program's chase.
  auto dict = Dict();
  rdf::Graph g3 = core::AuthorsGraphG3(dict);
  datalog::Program program = translate::BuildOwl2QlCoreProgram(dict);
  chase::Instance db = chase::Instance::FromGraph(g3);
  chase::ChaseOptions options;
  options.track_provenance = true;
  ASSERT_TRUE(RunChase(program, &db, options).ok());

  // Find the invented triple1(dbAho, is_author_of, _) fact.
  const chase::Relation* rel = db.Find(dict->Intern("triple1"));
  ASSERT_NE(rel, nullptr);
  SymbolId aho = dict->Intern("dbAho");
  SymbolId author = dict->Intern("is_author_of");
  int found = -1;
  for (uint32_t i = 0; i < rel->size(); ++i) {
    chase::TupleView t = rel->tuple(i);
    if (t[0] == chase::Term::Constant(aho) &&
        t[1] == chase::Term::Constant(author) && t[2].IsNull()) {
      found = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(found, 0) << "invented author triple missing";
  auto tree = ExtractProofTree(
      db, chase::FactRef{dict->Intern("triple1"),
                         static_cast<uint32_t>(found)});
  ASSERT_TRUE(tree.ok());
  // The derivation passes through type(dbAho, r2) via sc(r1, r2).
  std::string rendered = ProofTreeToString(**tree, *dict);
  EXPECT_NE(rendered.find("type(dbAho, r2)"), std::string::npos) << rendered;
  EXPECT_GE(ProofTreeDepth(**tree), 3u);
}

TEST(IntegrationTest, InconsistentOntologyPoisonsEveryQuery) {
  auto dict = Dict();
  owl::Ontology o;
  SymbolId a = dict->Intern("A"), b = dict->Intern("B");
  o.DeclareClass(a);
  o.DeclareClass(b);
  o.AddDisjointClasses(owl::BasicClass::Named(a), owl::BasicClass::Named(b));
  o.AddClassAssertion(owl::BasicClass::Named(a), dict->Intern("x"));
  o.AddClassAssertion(owl::BasicClass::Named(b), dict->Intern("x"));
  rdf::Graph g(dict);
  OntologyToGraph(o, &g);
  for (std::string_view q :
       {"{ ?X rdf:type A }", "{ ?X rdf:type unrelated }"}) {
    auto pattern = sparql::ParsePattern(q, dict.get());
    ASSERT_TRUE(pattern.ok());
    translate::TranslationOptions options;
    options.regime = translate::Regime::kActiveDomain;
    auto translated = TranslatePattern(**pattern, dict, options);
    ASSERT_TRUE(translated.ok());
    auto answers = EvaluateTranslated(*translated, g);
    EXPECT_EQ(answers.status().code(), StatusCode::kInconsistent) << q;
  }
}

TEST(IntegrationTest, CliqueViaNegationEliminationPipeline) {
  // The clique program's stratified negation can be compiled away with
  // Section 6.3 Step 1 and still decide 3-cliques. Note the negation
  // over nulls (noclique) is *not* grounded, so we eliminate only the
  // Π_aux negation by running on the aux program, then check agreement
  // of the ground aux relations.
  auto dict = Dict();
  auto aux = datalog::ParseProgram(R"(
    succ0(?X, ?Y) -> less0(?X, ?Y) .
    succ0(?X, ?Y), less0(?Y, ?Z) -> less0(?X, ?Z) .
    less0(?X, ?Y) -> not_max(?X) .
    less0(?X, ?Y) -> not_min(?Y) .
    less0(?X, ?Y), not not_min(?X) -> zero0(?X) .
    less0(?Y, ?X), not not_max(?X) -> max0(?X) .
  )",
                                   dict);
  ASSERT_TRUE(aux.ok());
  chase::Instance db(dict);
  for (int i = 0; i < 3; ++i) {
    db.AddFact("succ0", {std::to_string(i), std::to_string(i + 1)});
  }
  auto rewritten = core::EliminateNegation(*aux, db);
  ASSERT_TRUE(rewritten.ok());
  chase::Instance direct = core::CloneInstance(db);
  ASSERT_TRUE(RunChase(*aux, &direct).ok());
  chase::Instance via = std::move(rewritten->second);
  ASSERT_TRUE(RunChase(rewritten->first, &via).ok());
  for (const char* pred : {"zero0", "max0"}) {
    EXPECT_EQ(direct.Find(dict->Intern(pred))->size(),
              via.Find(dict->Intern(pred))->size())
        << pred;
  }
}

TEST(IntegrationTest, FullAuthorNarrative) {
  // The complete Section 2 story on one graph: G3's restriction
  // axioms, G4's sameAs, plus the coauthor invention rule — query (1)
  // finds all three authors.
  auto dict = Dict();
  rdf::Graph g = core::AuthorsGraphG3(dict);
  g.Add("dbAho", "owl:sameAs", "yagoAho");
  g.Add("yagoAho", "name", "\"A. V. Aho\"");
  g.Add("dbHopcroft", "is_coauthor_of", "dbUllman");
  g.Add("dbHopcroft", "name", "\"John Hopcroft\"");

  datalog::Program lib = translate::OnPropertyRules(dict);
  ASSERT_TRUE(lib.Append(translate::RdfsRules(dict)).ok());
  ASSERT_TRUE(lib.Append(translate::SameAsRules(dict)).ok());
  auto user = datalog::ParseProgram(
      "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X) .",
      dict);
  ASSERT_TRUE(user.ok());
  ASSERT_TRUE(lib.Append(*user).ok());
  auto query = core::TriqQuery::Create(std::move(lib), "query");
  ASSERT_TRUE(query.ok());
  chase::ChaseOptions options;
  options.max_facts = 5'000'000;
  auto answers =
      query->Evaluate(chase::Instance::FromGraph(g), options);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  std::vector<std::string> names;
  for (const chase::Tuple& t : *answers) {
    names.push_back(dict->Text(t[0].symbol()));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"\"A. V. Aho\"", "\"Alfred Aho\"",
                                      "\"Jeffrey Ullman\"",
                                      "\"John Hopcroft\""}));
}

}  // namespace
}  // namespace triq
