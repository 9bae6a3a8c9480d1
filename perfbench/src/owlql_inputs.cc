#include "owlql_inputs.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "chase/chase.h"
#include "chase/instance.h"
#include "owl/rdf_mapping.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "translate/sparql_to_datalog.h"
#include "util.h"

namespace perfbench {

OwlqlSizes OwlqlSizesFor(bool tiny, uint64_t seed) {
  OwlqlSizes sizes;
  triq::owl::RandomOntologyOptions& o = sizes.ontology;
  if (tiny) {
    o.num_classes = 6;
    o.num_properties = 2;
    o.num_individuals = 60;
    o.num_subclass_axioms = 6;
    o.num_subproperty_axioms = 1;
    o.num_class_assertions = 60;
    o.num_property_assertions = 90;
    sizes.pool = 160;
    sizes.warmup = 64;
    sizes.traced_ops = 400;
  } else {
    o.num_classes = 100;
    o.num_properties = 8;
    o.num_individuals = 3000;
    o.num_subclass_axioms = 60;
    o.num_subproperty_axioms = 0;
    o.num_class_assertions = 4000;
    o.num_property_assertions = 6000;
    sizes.pool = 512;
    sizes.warmup = 512;
    sizes.traced_ops = 3000;
  }
  o.seed = DeriveSeed(seed, kOntologyStream);
  return sizes;
}

triq::owl::Ontology BoundedOntology(const OwlqlSizes& sizes,
                                    triq::Dictionary* dict) {
  using triq::owl::Axiom;
  const triq::owl::Ontology raw =
      triq::owl::RandomOntology(sizes.ontology, dict);
  triq::owl::Ontology ontology;
  for (triq::SymbolId c : raw.classes()) ontology.DeclareClass(c);
  for (triq::SymbolId p : raw.properties()) ontology.DeclareProperty(p);
  for (const Axiom& a : raw.axioms()) {
    switch (a.kind) {
      case Axiom::Kind::kSubClassOf:
        if (a.class1.is_existential && a.class2.is_existential) break;
        ontology.AddSubClassOf(a.class1, a.class2);
        break;
      case Axiom::Kind::kSubPropertyOf:
        ontology.AddSubPropertyOf(a.prop1, a.prop2);
        break;
      case Axiom::Kind::kDisjointClasses:
        ontology.AddDisjointClasses(a.class1, a.class2);
        break;
      case Axiom::Kind::kDisjointProperties:
        ontology.AddDisjointProperties(a.prop1, a.prop2);
        break;
      case Axiom::Kind::kClassAssertion:
        ontology.AddClassAssertion(a.class1, a.individual1);
        break;
      case Axiom::Kind::kPropertyAssertion:
        ontology.AddPropertyAssertion(a.prop1.property, a.individual1,
                                      a.individual2);
        break;
    }
  }
  return ontology;
}

namespace {

std::string Class(int i) { return "class" + std::to_string(i); }
std::string Prop(int i) { return "prop" + std::to_string(i); }
std::string Ind(int i) { return "ind" + std::to_string(i); }

/// One random text of `kind` over the ontology's vocabulary.
std::string RandomText(QueryKind kind, const triq::owl::RandomOntologyOptions& o,
                       std::mt19937_64& rng) {
  auto pick = [&](int n) { return static_cast<int>(rng() % static_cast<uint64_t>(n)); };
  const std::string c = Class(pick(o.num_classes));
  const std::string p = Prop(pick(o.num_properties));
  switch (kind) {
    case QueryKind::kClass:
      return "{ ?x rdf:type " + c + " }";
    case QueryKind::kJoin:
      return (rng() & 1) != 0
                 ? "{ ?x " + p + " ?y . ?y rdf:type " + c + " }"
                 : "{ ?x " + p + " ?y . ?x rdf:type " + c + " }";
    case QueryKind::kOpt:
      return "OPT({ ?x rdf:type " + c + " }, { ?x " + p + " ?y })";
    case QueryKind::kUnion:
      return "UNION({ ?x rdf:type " + c + " }, { ?x rdf:type " +
             Class(pick(o.num_classes)) + " })";
    case QueryKind::kFilter:
      return (rng() & 1) != 0
                 ? "FILTER({ ?x " + p + " ?y }, ?x = " +
                       Ind(pick(o.num_individuals)) + ")"
                 : "FILTER({ ?x " + p + " ?y . ?x rdf:type " + c +
                       " }, ! ?x = ?y)";
    case QueryKind::kCycle:
      return "{ ?x " + p + " ?y . ?y " + Prop(pick(o.num_properties)) +
             " ?z . ?z " + Prop(pick(o.num_properties)) + " ?x }";
  }
  return "";
}

}  // namespace

QueryPool MakeQueryPool(const OwlqlSizes& sizes, uint64_t seed) {
  // Share of each kind in the pool (class, join, OPT, UNION, FILTER,
  // cycle). It places each percentile inside one kind's cost cluster
  // rather than on a boundary between two, where a small seed-to-seed
  // shift in the mix would move it. Among hits, FILTER, joins and cycles
  // return few rows and cost about the same, and they are three quarters
  // of the pool, so p50 falls among them. Among misses, FILTER's overlay
  // chase sits mid-order (dearer than class lookups, joins and UNION,
  // cheaper than OPT and cycles) and holds half of them, so p90 falls
  // inside it.
  const double share[kQueryKinds] = {0.05, 0.20, 0.10, 0.10, 0.50, 0.05};
  std::mt19937_64 rng(DeriveSeed(seed, kPoolStream));
  std::set<std::string> seen;
  std::vector<std::vector<std::string>> by_kind(kQueryKinds);
  size_t total = 0;
  for (int k = 0; k < kQueryKinds; ++k) {
    const size_t want =
        static_cast<size_t>(share[k] * static_cast<double>(sizes.pool));
    for (int attempt = 0; by_kind[k].size() < want && attempt < 64 * 1024;
         ++attempt) {
      std::string text = RandomText(static_cast<QueryKind>(k), sizes.ontology, rng);
      if (seen.insert(text).second) by_kind[k].push_back(std::move(text));
    }
    total += by_kind[k].size();
  }
  const int fill = static_cast<int>(QueryKind::kFilter);
  while (total < sizes.pool) {
    std::string text = RandomText(QueryKind::kFilter, sizes.ontology, rng);
    if (seen.insert(text).second) {
      by_kind[fill].push_back(std::move(text));
      ++total;
    }
  }

  // Interleave the kinds by stride scheduling (not by the seed), so every
  // seed puts the same kind at each pool position: the hot head and the
  // cache-missing tail have the same mix on every seed.
  QueryPool pool;
  std::vector<size_t> taken(kQueryKinds, 0);
  pool.sample.assign(kQueryKinds, sizes.pool);
  for (size_t i = 0; i < sizes.pool; ++i) {
    int best = -1;
    double best_pass = 0;
    for (int k = 0; k < kQueryKinds; ++k) {
      if (taken[k] == by_kind[k].size()) continue;
      const double pass = (static_cast<double>(taken[k]) + 0.5) /
                          static_cast<double>(by_kind[k].size());
      if (best < 0 || pass < best_pass) {
        best = k;
        best_pass = pass;
      }
    }
    if (pool.sample[best] == sizes.pool) pool.sample[best] = i;
    pool.texts.push_back(by_kind[best][taken[best]++]);
  }
  return pool;
}

std::vector<std::string> RenderMappings(const triq::sparql::MappingSet& set,
                                        const triq::Dictionary& dict) {
  std::vector<std::string> rows;
  rows.reserve(set.size());
  for (const triq::sparql::SparqlMapping& m : set.mappings()) {
    rows.push_back(m.ToString(dict));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

triq::Result<std::vector<std::string>> ReferenceAnswers(
    const OwlqlSizes& sizes, const std::string& text) {
  auto dict = std::make_shared<triq::Dictionary>();
  const triq::owl::Ontology ontology = BoundedOntology(sizes, dict.get());
  triq::rdf::Graph graph(dict);
  triq::owl::OntologyToGraph(ontology, &graph);
  TRIQ_ASSIGN_OR_RETURN(auto pattern,
                        triq::sparql::ParsePattern(text, dict.get()));
  triq::translate::TranslationOptions options;
  options.regime = triq::translate::Regime::kActiveDomain;
  options.include_owl2ql_core = true;
  TRIQ_ASSIGN_OR_RETURN(
      triq::translate::TranslatedQuery query,
      triq::translate::TranslatePattern(*pattern, dict, options));
  TRIQ_ASSIGN_OR_RETURN(triq::sparql::MappingSet answers,
                        triq::translate::EvaluateTranslated(query, graph));
  return RenderMappings(answers, *dict);
}

std::vector<std::string> OntologyTurtleChunks(const OwlqlSizes& sizes,
                                              size_t max_bytes) {
  auto dict = std::make_shared<triq::Dictionary>();
  const triq::owl::Ontology ontology = BoundedOntology(sizes, dict.get());
  triq::rdf::Graph graph(dict);
  triq::owl::OntologyToGraph(ontology, &graph);
  std::vector<std::string> chunks(1);
  for (const triq::rdf::Triple& t : graph.triples()) {
    std::string line = dict->Text(t.subject) + " " + dict->Text(t.predicate) +
                       " " + dict->Text(t.object) + " . ";
    if (chunks.back().size() + line.size() > max_bytes) chunks.emplace_back();
    chunks.back() += line;
  }
  return chunks;
}

/// Replays one query text through the entry points a plan-cache miss
/// uses, each as a child span, and checks it decodes the Engine's answer.
void ReplayQuery(triq::Engine& engine, const std::string& text,
                 const triq::sparql::MappingSet& expected, uint64_t op,
                 Tracer* tracer, RunResult* result) {
  using triq::chase::Instance;
  Span whole(tracer, "replay.query", op);
  auto snapshot = engine.CurrentSnapshot();
  if (!snapshot.ok()) {
    result->Fail("replay: " + snapshot.status().ToString());
    return;
  }
  triq::Status status;
  std::unique_ptr<triq::sparql::GraphPattern> pattern;
  {
    Span span(tracer, "sparql.ParsePattern", op);
    auto parsed = triq::sparql::ParsePattern(text, &engine.dict());
    if (parsed.ok()) pattern = std::move(*parsed);
    status = parsed.status();
  }
  std::optional<triq::translate::TranslatedQuery> translated;
  if (status.ok()) {
    // The translation options Engine::Query uses under kActiveDomain:
    // τ_owl2ql_core is already in the materialized closure.
    triq::translate::TranslationOptions options;
    options.regime = triq::translate::Regime::kActiveDomain;
    options.include_owl2ql_core = false;
    Span span(tracer, "translate.TranslatePattern", op);
    auto done =
        triq::translate::TranslatePattern(*pattern, engine.dict_ptr(), options);
    if (done.ok()) translated = std::move(*done);
    status = done.status();
  }
  std::optional<triq::PreparedQuery> prepared;
  if (status.ok()) {
    // What a miss prepares: TriqQuery::Create and Classify, the program's
    // fingerprint, and the predicate claims.
    triq::datalog::Program program = std::move(translated->program);
    translated->program = triq::datalog::Program(engine.dict_ptr());
    Span span(tracer, "core.Prepare", op);
    auto done = engine.Prepare(
        std::move(program), engine.dict().Text(translated->answer_predicate));
    if (done.ok()) prepared.emplace(std::move(*done));
    status = done.status();
  }
  if (!status.ok()) {
    result->Fail("replay of " + text + ": " + status.ToString());
    return;
  }
  Instance overlay = Instance::MakeOverlay(&(*snapshot)->instance);
  {
    Span span(tracer, "chase.Overlay", op);
    status = triq::chase::RunChase(prepared->program(), &overlay,
                                   engine.options().ToChaseOptions());
  }
  {
    Span span(tracer, "chase.OverlayFreeze", op);
    overlay.FreezeAllIndexes();
  }
  // TotalFacts of an overlay counts its base too; keep the query's own.
  tracer->Count("chase.overlay_facts",
                static_cast<double>(overlay.TotalFacts() -
                                    (*snapshot)->instance.TotalFacts()),
                op);
  triq::sparql::MappingSet decoded;
  {
    Span span(tracer, "translate.AnswersToMappings", op);
    decoded = triq::translate::AnswersToMappings(*translated, overlay);
  }
  tracer->Count("translate.rows", static_cast<double>(decoded.size()), op);
  if (!status.ok()) {
    result->Fail("replay chase of " + text + ": " + status.ToString());
  } else if (RenderMappings(decoded, engine.dict()) !=
             RenderMappings(expected, engine.dict())) {
    result->Fail("replay of " + text + " decoded " +
                 std::to_string(decoded.size()) + " rows, the Engine " +
                 std::to_string(expected.size()));
  }
}

}  // namespace perfbench
