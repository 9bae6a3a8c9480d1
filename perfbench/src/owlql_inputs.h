// Shared by owlql_sparql and serve_rw: the seeded OWL 2 QL ontology, the
// pool of SPARQL pattern texts and the skewed stream that draws from it,
// the reference answers from translate::EvaluateTranslated, and the
// traced replay of one query through the layers below Engine::Query.
#ifndef PERFBENCH_OWLQL_INPUTS_H_
#define PERFBENCH_OWLQL_INPUTS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "owl/generator.h"
#include "sparql/mapping.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// Seed streams (see DeriveSeed). The owlql_sparql client draws from
/// kClientStream, serve_rw's reader i from kClientStream + 1 + i.
enum : uint64_t {
  kOntologyStream = 2,
  kPoolStream = 3,
  kWriteStream = 4,
  kClientStream = 16,
};

/// The six pattern shapes of the pool, in the paper's algebraic syntax.
enum class QueryKind { kClass, kJoin, kOpt, kUnion, kFilter, kCycle };
constexpr int kQueryKinds = 6;

struct OwlqlSizes {
  triq::owl::RandomOntologyOptions ontology;
  size_t pool = 0;          // distinct query texts (> the 128-plan cache)
  size_t warmup = 0;        // stream prefix run during set-up
  size_t traced_ops = 0;    // queries per phase of a traced run
};
OwlqlSizes OwlqlSizesFor(bool tiny, uint64_t seed);

/// owl::RandomOntology without its SubClassOf(∃r, ∃s) axioms. Those
/// chain value invention from one invented null to the next (∃p ⊑ ∃p⁻
/// alone never terminates), so the closure size swings by orders of
/// magnitude between seeds; without them every null is one step from an
/// individual and the closure stays within tens of percent across seeds.
triq::owl::Ontology BoundedOntology(const OwlqlSizes& sizes,
                                    triq::Dictionary* dict);

struct QueryPool {
  std::vector<std::string> texts;
  /// First pool index of each kind (the fixed reference sample).
  std::vector<size_t> sample;
};
QueryPool MakeQueryPool(const OwlqlSizes& sizes, uint64_t seed);

/// Hot-set skew over pool indices: 80% of queries pick uniformly among
/// the first eighth of the pool (which fits the 128-plan cache), the
/// rest uniformly among the remainder (which does not). Both percentiles
/// then average over many texts: p50 lands on hits, p90 on misses.
class QueryStream {
 public:
  QueryStream(uint64_t seed, size_t pool_size)
      : rng_(seed), hot_(pool_size / 8), size_(pool_size) {}
  size_t Next() {
    const bool hot = std::uniform_real_distribution<double>(0, 1)(rng_) < 0.8;
    const size_t begin = hot ? 0 : hot_;
    const size_t end = hot ? hot_ : size_;
    return std::uniform_int_distribution<size_t>(begin, end - 1)(rng_);
  }

 private:
  std::mt19937_64 rng_;
  size_t hot_;
  size_t size_;
};

/// Solution mappings rendered and sorted, for comparing answers across
/// dictionaries.
std::vector<std::string> RenderMappings(const triq::sparql::MappingSet& set,
                                        const triq::Dictionary& dict);

/// Evaluates `text` with translate::EvaluateTranslated (τ_owl2ql_core
/// included) over the ontology's own graph, on a private dictionary.
triq::Result<std::vector<std::string>> ReferenceAnswers(
    const OwlqlSizes& sizes, const std::string& text);

/// Every triple of the ontology as Turtle lines, grouped into chunks of
/// at most `max_bytes` (serve_rw's LOAD lines).
std::vector<std::string> OntologyTurtleChunks(const OwlqlSizes& sizes,
                                              size_t max_bytes);

/// Replays one query text through the entry points a plan-cache miss of
/// Engine::Query uses (sparql parse, translate, Engine::Prepare, overlay
/// chase and freeze, decode), each as a child span of a `replay.query`
/// span, and fails `result` unless the decoded answers equal `expected`.
void ReplayQuery(triq::Engine& engine, const std::string& text,
                 const triq::sparql::MappingSet& expected, uint64_t op,
                 Tracer* tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_OWLQL_INPUTS_H_
