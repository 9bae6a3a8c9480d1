// owlql_sparql: the paper's headline use. One in-process client runs
// Engine::Query in a closed loop over a materialized OWL 2 QL ontology
// under the active-domain regime (τ^U_bgp, Theorem 5.3). The query
// texts come from a pool larger than the 128-plan cache through a skewed
// stream, so the seed fixes the hit/miss split: hits run only the
// plan-cache hit path, misses run parse, translate, prepare, the overlay
// chase and decode. No data chase runs while timed. The timed phase runs
// a fixed number of queries (kQueriesPerSecond per requested second):
// every miss leaves the session a little larger and slower, so a phase
// bounded by time instead would age the session further on a faster
// machine or a faster build.
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "owl/generator.h"
#include "owlql_inputs.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"
#include "write_path.h"

namespace perfbench {
namespace {

constexpr int kSetups = 7;
// Queries per requested second of the timed phase: about what one client
// completes on a 4-vCPU x86-64 VM, so a run lasts about --seconds there.
constexpr double kQueriesPerSecond = 9000;
// Writes the traced run replays on a journaled Engine.
constexpr size_t kTracedWrites = 20;

struct Session {
  std::unique_ptr<triq::Engine> engine;
  std::unique_ptr<QueryStream> stream;
};

/// Ontology -> Engine -> Materialize, then the warm-up prefix of the
/// query stream (fills the plan cache so timing starts in steady state).
Session MakeSession(const OwlqlSizes& sizes, const QueryPool& pool,
                    uint64_t seed, Tracer* tracer, RunResult* result) {
  Session session;
  session.engine = std::make_unique<triq::Engine>(
      triq::EngineOptions().SetRegime(triq::EntailmentRegime::kActiveDomain));
  triq::Engine& engine = *session.engine;
  const triq::owl::Ontology ontology =
      BoundedOntology(sizes, &engine.dict());
  triq::Status status;
  {
    Span span(tracer, "engine.AttachOntology", Tracer::kNoOp);
    status = engine.AttachOntology(ontology);
  }
  if (status.ok()) {
    Span span(tracer, "engine.Materialize", Tracer::kNoOp);
    status = engine.Materialize().status();
  }
  if (!status.ok()) result->Fail("set-up failed: " + status.ToString());
  session.stream = std::make_unique<QueryStream>(
      DeriveSeed(seed, kClientStream), pool.texts.size());
  for (size_t i = 0; i < sizes.warmup && status.ok(); ++i) {
    auto answers = engine.Query(pool.texts[session.stream->Next()]);
    if (!answers.ok()) status = answers.status();
  }
  if (!status.ok()) result->Fail("warm-up failed: " + status.ToString());
  return session;
}

/// Median of `kSetups` set-ups; the first is timed from process start.
/// Returns the last session.
Session Setup(const OwlqlSizes& sizes, const QueryPool& pool, uint64_t seed,
              Clock::time_point begin, Tracer* tracer, double* setup_s,
              RunResult* result) {
  std::vector<double> seconds;
  Session session;
  for (int i = 0; i < kSetups; ++i) {
    session = Session();  // tear the previous one down untimed
    if (i > 0) begin = Clock::now();
    Span span(tracer, "setup", Tracer::kNoOp);
    session = MakeSession(sizes, pool, seed, tracer, result);
    seconds.push_back(MsBetween(begin, Clock::now()) / 1e3);
  }
  *setup_s = Median(seconds);
  return session;
}

/// What one phase saw per pool index: the first answer (traced phase:
/// the full mapping set, for the replay) and its row count.
struct Seen {
  size_t rows = 0;
  triq::sparql::MappingSet answers;
  uint64_t op = 0;
};

/// Runs exactly `count` queries.
PhaseTimes TimedQueries(Session& session, const QueryPool& pool,
                        size_t count, Tracer* tracer,
                        uint64_t* next_op,
                        std::unordered_map<size_t, Seen>* seen,
                        RunResult* result) {
  triq::Engine& engine = *session.engine;
  const uint64_t materializations = engine.materializations();
  PhaseTimes phase;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  for (size_t n = 0; n < count; ++n) {
    const size_t index = session.stream->Next();
    const std::string& text = pool.texts[index];
    const uint64_t op = (*next_op)++;
    triq::sparql::MappingSet copy;  // traced: the answers, copied
    const Clock::time_point begin = Clock::now();
    triq::Result<triq::sparql::MappingSet> answers =
        triq::Status::Internal("not run");
    {
      Span op_span(tracer, "op.query", op);
      uint64_t hits_before = 0;
      if (tracer != nullptr) hits_before = engine.stats().sparql_cache_hits;
      {
        Span span(tracer, "engine.Query", op);
        answers = engine.Query(text);
      }
      if (tracer != nullptr) {
        const bool hit = engine.stats().sparql_cache_hits > hits_before;
        tracer->Count("engine.hit", hit ? 1 : 0, op);
        if (answers.ok()) {
          Span span(tracer, "engine.result_copy", op);
          copy = *answers;
        }
      }
    }
    now = Clock::now();
    ++result->attempted;
    if (!answers.ok()) {
      ++result->failed;
      result->Fail("query failed: " + text + ": " +
                   answers.status().ToString());
      continue;
    }
    phase.op_ms.push_back(MsBetween(begin, now));
    auto [it, first] = seen->try_emplace(index);
    if (first) {
      it->second.rows = answers->size();
      it->second.op = op;
      if (tracer != nullptr) it->second.answers = std::move(copy);
    } else if (it->second.rows != answers->size()) {
      // The snapshot never changes while timed: every repeat of a text
      // must return the same answers.
      ++result->failed;
      result->Fail("query " + text + " returned " +
                   std::to_string(answers->size()) + " rows, earlier " +
                   std::to_string(it->second.rows));
    }
  }
  phase.elapsed_s = MsBetween(start, now) / 1e3;
  if (engine.materializations() != materializations) {
    result->Fail("a data chase ran while queries were timed");
  }
  return phase;
}

/// Pool texts `indices` against translate::EvaluateTranslated over the
/// ontology's own graph; returns how many matched.
size_t CheckTexts(triq::Engine& engine, const OwlqlSizes& sizes,
                  const QueryPool& pool, const std::vector<size_t>& indices,
                  RunResult* result) {
  size_t matched = 0;
  for (size_t index : indices) {
    if (index >= pool.texts.size()) continue;
    const std::string& text = pool.texts[index];
    auto got = engine.Query(text);
    auto want = ReferenceAnswers(sizes, text);
    if (!got.ok() || !want.ok()) {
      result->Fail("reference check of " + text + " failed: " +
                   (!got.ok() ? got.status() : want.status()).ToString());
    } else if (RenderMappings(*got, engine.dict()) != *want) {
      result->Fail("query " + text + " returned " +
                   std::to_string(got->size()) + " rows, the reference " +
                   std::to_string(want->size()));
    } else {
      ++matched;
    }
  }
  return matched;
}

/// Digest of the generated inputs: the ontology's triples and the pool.
uint64_t InputDigest(const OwlqlSizes& sizes, const QueryPool& pool) {
  uint64_t digest = Digest("");
  for (const std::string& chunk : OntologyTurtleChunks(sizes, 1 << 20)) {
    digest = Digest(chunk, digest);
  }
  for (const std::string& text : pool.texts) digest = Digest(text, digest);
  return digest;
}

}  // namespace

RunResult RunOwlqlSparql(const Config& config, Tracer* tracer) {
  RunResult result;
  const OwlqlSizes sizes = OwlqlSizesFor(config.tiny, config.seed);
  const QueryPool pool = MakeQueryPool(sizes, config.seed);
  double setup_s = 0;
  Session session = Setup(sizes, pool, config.seed, config.process_start,
                          nullptr, &setup_s, &result);
  PrintInputDigest(config, InputDigest(sizes, pool));
  if (config.tiny) {
    std::vector<size_t> all(pool.texts.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    const size_t matched = CheckTexts(*session.engine, sizes, pool, all, &result);
    std::fprintf(stderr, "pool check: %s %zu of %zu texts match\n",
                 matched == all.size() ? "all" : "only", matched, all.size());
  }
  uint64_t next_op = 0;
  std::unordered_map<size_t, Seen> seen;
  if (tracer == nullptr) {
    const size_t count =
        static_cast<size_t>(config.seconds * kQueriesPerSecond);
    PhaseTimes phase = TimedQueries(session, pool, count, nullptr, &next_op,
                                    &seen, &result);
    phase.setup_s = setup_s;
    AddEndToEnd(phase, PeakRssMb(), &result.metrics);
    CheckTexts(*session.engine, sizes, pool, pool.sample, &result);
    return result;
  }

  // Traced mode: a fixed-length prefix of the stream untraced, then the
  // same prefix traced on a fresh session (same cache history), then one
  // replay per distinct text, then the write path.
  PhaseTimes plain = TimedQueries(session, pool, sizes.traced_ops, nullptr,
                                  &next_op, &seen, &result);
  plain.setup_s = setup_s;
  AddEndToEnd(plain, PeakRssMb(), &result.metrics);
  seen.clear();

  double traced_setup_s = 0;
  session = Session();
  session = Setup(sizes, pool, config.seed, Clock::now(), tracer,
                  &traced_setup_s, &result);
  triq::Engine& engine = *session.engine;
  tracer->Count("common.dict_symbols",
                static_cast<double>(engine.dict().size()));
  const triq::EngineStats before = engine.stats();
  PhaseTimes traced = TimedQueries(session, pool, sizes.traced_ops, tracer,
                                   &next_op, &seen, &result);
  const triq::EngineStats after = engine.stats();
  traced.setup_s = traced_setup_s;
  AddEndToEnd(traced, PeakRssMb(), &result.traced_metrics);
  tracer->Count("engine.cache_hits", static_cast<double>(
                                         after.sparql_cache_hits -
                                         before.sparql_cache_hits));
  tracer->Count("engine.cache_misses",
                static_cast<double>(after.sparql_cache_misses -
                                    before.sparql_cache_misses));
  tracer->Count("engine.cache_evictions",
                static_cast<double>(after.sparql_cache_evictions -
                                    before.sparql_cache_evictions));
  for (const auto& [index, first] : seen) {
    ReplayQuery(engine, pool.texts[index], first.answers, first.op, tracer,
                &result);
  }
  CheckTexts(engine, sizes, pool, pool.sample, &result);
  session = Session();

  // The write path, which no query takes: seeded writes on a journaled
  // in-process Engine loaded with the same ontology.
  TraceWritePath(sizes, config.seed, config.tiny ? 4 : kTracedWrites,
                 config.work_dir, tracer, &result);
  return result;
}

}  // namespace perfbench
