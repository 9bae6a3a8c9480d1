// batch_materialize: the batch user's job in a closed loop, one job at a
// time. Each job builds a fresh Engine with 2 chase threads, loads a
// seeded Turtle graph, attaches recursive reachability plus a triangle
// join, materializes, and reads both answer relations. Most of its time
// is chase match, dedup/commit and freeze; none is SPARQL, translation
// or the server. It is the only workload that runs the sharded executor.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/termination.h"
#include "chase/chase.h"
#include "chase/instance.h"
#include "core/workloads.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kKnowsStream = 1;
constexpr int kSetups = 5;
constexpr int kReplays = 3;  // per-layer times are medians over replays
constexpr size_t kChaseThreads = 2;

struct Sizes {
  int chains, chain_len;           // reachability part: e-labeled chains
  int people, degree, planted;     // triangle part: BipartiteTriangleEdges
  int traced_jobs;
};

Sizes SizesFor(bool tiny) {
  if (tiny) return {6, 8, 40, 3, 4, 2};
  return {400, 50, 3600, 14, 700, 6};
}

constexpr char kReachRules[] =
    "triple(?X, e, ?Y) -> reach(?X, ?Y) .\n"
    "reach(?X, ?Y), triple(?Y, e, ?Z) -> reach(?X, ?Z) .\n";
constexpr char kTriangleRule[] =
    "triple(?X, knows, ?Y), triple(?Y, knows, ?Z), triple(?Z, knows, ?X) "
    "-> tri(?X, ?Y, ?Z) .\n";

struct Job {
  std::string turtle;
  std::string rules;
  size_t expect_reach = 0;
  size_t expect_tri = 0;
};

/// Undirected triangles of a simple graph, counted directly from the
/// generator's edge list (the oracle for the `tri` answer count).
size_t CountTriangles(const std::vector<std::pair<int, int>>& edges, int n) {
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& list : adj) std::sort(list.begin(), list.end());
  size_t triangles = 0;
  for (const auto& [a, b] : edges) {
    const int hi = std::max(a, b);
    const auto& x = adj[a];
    const auto& y = adj[b];
    size_t i = 0, j = 0;
    while (i < x.size() && j < y.size()) {
      if (x[i] < y[j]) {
        ++i;
      } else if (y[j] < x[i]) {
        ++j;
      } else {
        if (x[i] > hi) ++triangles;  // count each triangle at its top vertex
        ++i;
        ++j;
      }
    }
  }
  return triangles;
}

Job MakeJob(const Sizes& sizes, uint64_t seed) {
  Job job;
  job.turtle = triq::core::MultiChainTurtle(sizes.chains, sizes.chain_len);
  const auto edges = triq::core::BipartiteTriangleEdges(
      sizes.people, sizes.degree, sizes.planted,
      DeriveSeed(seed, kKnowsStream));
  for (const auto& [a, b] : edges) {
    const std::string pa = "p" + std::to_string(a);
    const std::string pb = "p" + std::to_string(b);
    job.turtle += pa + " knows " + pb + " .\n" + pb + " knows " + pa + " .\n";
  }
  job.rules = std::string(kReachRules) + kTriangleRule;
  const size_t len = static_cast<size_t>(sizes.chain_len);
  job.expect_reach = static_cast<size_t>(sizes.chains) * len * (len + 1) / 2;
  // Both orientations are loaded, so each triangle closes 6 ways.
  job.expect_tri = 6 * CountTriangles(edges, sizes.people);
  return job;
}

struct JobAnswers {
  bool ok = false;
  std::string error;
  size_t reach = 0;
  size_t tri = 0;
  size_t dict_symbols = 0;
};

JobAnswers RunJob(const Job& job, Tracer* tracer, uint64_t op) {
  JobAnswers out;
  Span whole(tracer, "op.job", op);
  std::unique_ptr<triq::Engine> engine;
  {
    Span span(tracer, "engine.Engine", op);
    engine = std::make_unique<triq::Engine>(
        triq::EngineOptions().SetNumThreads(kChaseThreads));
  }
  triq::Status status;
  {
    Span span(tracer, "engine.LoadTurtle", op);
    status = engine->LoadTurtle(job.turtle);
  }
  out.dict_symbols = engine->dict().size();
  if (status.ok()) {
    Span span(tracer, "engine.AttachRules", op);
    status = engine->AttachRules(job.rules);
  }
  if (status.ok()) {
    Span span(tracer, "engine.Materialize", op);
    status = engine->Materialize().status();
  }
  if (status.ok()) {
    Span span(tracer, "engine.Answers", op);
    auto reach = engine->Answers("reach");
    auto tri = engine->Answers("tri");
    status = !reach.ok() ? reach.status() : tri.status();
    if (status.ok()) {
      out.reach = reach->size();
      out.tri = tri->size();
    }
  }
  {
    Span span(tracer, "engine.~Engine", op);
    engine.reset();
  }
  out.ok = status.ok();
  if (!out.ok) out.error = status.ToString();
  return out;
}

/// Checks one job's answers against the generator-derived counts.
bool CheckJob(const Job& job, const JobAnswers& answers, RunResult* result) {
  if (!answers.ok) {
    result->Fail("job failed: " + answers.error);
    return false;
  }
  if (answers.reach != job.expect_reach || answers.tri != job.expect_tri) {
    result->Fail("job answered reach=" + std::to_string(answers.reach) +
                 " tri=" + std::to_string(answers.tri) + ", expected reach=" +
                 std::to_string(job.expect_reach) +
                 " tri=" + std::to_string(job.expect_tri));
    return false;
  }
  return true;
}

size_t ConstantTuples(const triq::chase::Instance& instance,
                      std::string_view predicate) {
  const triq::chase::Relation* rel = instance.Find(predicate);
  if (rel == nullptr) return 0;
  size_t count = 0;
  for (size_t i = 0; i < rel->size(); ++i) {
    bool constant = true;
    for (triq::chase::Term t : rel->tuple(i)) constant &= t.IsConstant();
    count += constant ? 1 : 0;
  }
  return count;
}

/// Replays one job through the entry points Engine::LoadTurtle,
/// AttachRules and Materialize use, each as a child span, and checks it
/// reaches the Engine's answers.
void ReplayJob(const Job& job, const JobAnswers& engine_answers,
               Tracer* tracer, uint64_t op, RunResult* result) {
  using triq::chase::Instance;
  Span whole(tracer, "replay.job", op);
  auto dict = std::make_shared<triq::Dictionary>();
  triq::rdf::Graph graph(dict);
  triq::Status status;
  {
    Span span(tracer, "rdf.ParseTurtle", op);
    status = triq::rdf::ParseTurtle(job.turtle, &graph);
  }
  tracer->Count("rdf.triples", static_cast<double>(graph.size()), op);
  Instance base(dict);
  {
    Span span(tracer, "chase.FromGraph", op);
    base = Instance::FromGraph(graph);
  }
  triq::datalog::Program program(dict);
  {
    Span span(tracer, "datalog.ParseProgram", op);
    auto parsed = triq::datalog::ParseProgram(job.rules, dict);
    if (parsed.ok()) program = std::move(*parsed);
    if (status.ok()) status = parsed.status();
  }
  {
    Span span(tracer, "analysis.AnalyzeTermination", op);
    triq::analysis::AnalyzeTermination(program);
  }
  const triq::chase::ChaseOptions options =
      triq::EngineOptions().SetNumThreads(kChaseThreads).ToChaseOptions();
  Instance next(dict);
  {
    Span span(tracer, "chase.CloneFacts", op);
    next = base.CloneFacts();
  }
  triq::chase::ChaseStats stats;
  {
    Span span(tracer, "chase.RunChase", op);
    if (status.ok()) status = triq::chase::RunChase(program, &next, options, &stats);
  }
  {
    Span span(tracer, "chase.FreezeAllIndexes", op);
    next.FreezeAllIndexes();
  }
  tracer->Count("chase.rounds", static_cast<double>(stats.rounds), op);
  tracer->Count("chase.rule_firings", static_cast<double>(stats.rule_firings),
                op);
  tracer->Count("chase.facts_derived",
                static_cast<double>(stats.facts_derived), op);
  tracer->Count("chase.sharded_passes",
                static_cast<double>(stats.sharded_passes), op);
  const size_t reach = ConstantTuples(next, "reach");
  const size_t tri = ConstantTuples(next, "tri");
  if (!status.ok()) {
    result->Fail("replay failed: " + status.ToString());
  } else if (reach != engine_answers.reach || tri != engine_answers.tri) {
    result->Fail("replay answered reach=" + std::to_string(reach) +
                 " tri=" + std::to_string(tri) +
                 ", the Engine reach=" + std::to_string(engine_answers.reach) +
                 " tri=" + std::to_string(engine_answers.tri));
  }

  // The triangle rule alone over the same base: its share of chase time.
  auto triangle = triq::datalog::ParseProgram(kTriangleRule, dict);
  if (triangle.ok()) {
    Instance alone = base.CloneFacts();
    Span span(tracer, "chase.RunChase.triangle_only", op);
    TRIQ_IGNORE_STATUS(triq::chase::RunChase(*triangle, &alone, options));
  }
}

/// Builds the inputs and runs the untimed warm-up job, `kSetups` times;
/// returns the median set-up time. The first set-up is timed from
/// `begin` (process start in the untraced run).
double Setup(const Config& config, const Sizes& sizes, Clock::time_point begin,
             Tracer* tracer, uint64_t* next_op, Job* job, RunResult* result) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    Span span(tracer, "setup", Tracer::kNoOp);
    *job = MakeJob(sizes, config.seed);
    CheckJob(*job, RunJob(*job, tracer, (*next_op)++), result);
    span.End();
    const Clock::time_point end = Clock::now();
    seconds.push_back(MsBetween(begin, end) / 1e3);
    begin = end;
  }
  return Median(seconds);
}

/// Runs jobs until `seconds` have passed (count == 0) or exactly `count`
/// jobs; op ids continue from `*next_op`.
PhaseTimes TimedJobs(const Job& job, double seconds, int count,
                     Tracer* tracer, uint64_t* next_op,
                     std::vector<JobAnswers>* answers, RunResult* result) {
  PhaseTimes phase;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  while (count > 0 ? static_cast<int>(phase.op_ms.size()) < count
                   : MsBetween(start, now) < seconds * 1e3) {
    const Clock::time_point begin = Clock::now();
    JobAnswers got = RunJob(job, tracer, (*next_op)++);
    now = Clock::now();
    ++result->attempted;
    if (!CheckJob(job, got, result)) ++result->failed;
    phase.op_ms.push_back(MsBetween(begin, now));
    if (answers != nullptr) answers->push_back(std::move(got));
  }
  phase.elapsed_s = MsBetween(start, now) / 1e3;
  return phase;
}

}  // namespace

RunResult RunBatchMaterialize(const Config& config, Tracer* tracer) {
  RunResult result;
  const Sizes sizes = SizesFor(config.tiny);
  Job job;
  uint64_t next_op = 0;
  const double setup_s = Setup(config, sizes, config.process_start, nullptr,
                               &next_op, &job, &result);
  PrintInputDigest(config, Digest(job.rules, Digest(job.turtle)));
  if (tracer == nullptr) {
    PhaseTimes phase = TimedJobs(job, config.seconds, 0, nullptr, &next_op,
                                 nullptr, &result);
    phase.setup_s = setup_s;
    AddEndToEnd(phase, PeakRssMb(), &result.metrics);
    return result;
  }

  // Traced mode: the same job stream untraced, then traced, then
  // replays of the (single distinct) job through the layers below.
  PhaseTimes plain = TimedJobs(job, 0, sizes.traced_jobs, nullptr, &next_op,
                               nullptr, &result);
  plain.setup_s = setup_s;
  AddEndToEnd(plain, PeakRssMb(), &result.metrics);

  Job traced_job;
  const double traced_setup_s = Setup(config, sizes, Clock::now(), tracer,
                                      &next_op, &traced_job, &result);
  std::vector<JobAnswers> answers;
  PhaseTimes traced = TimedJobs(traced_job, 0, sizes.traced_jobs, tracer,
                                &next_op, &answers, &result);
  traced.setup_s = traced_setup_s;
  AddEndToEnd(traced, PeakRssMb(), &result.traced_metrics);
  if (!answers.empty()) {
    tracer->Count("common.dict_symbols",
                  static_cast<double>(answers.front().dict_symbols));
    for (int i = 0; i < kReplays; ++i) {
      ReplayJob(traced_job, answers.front(), tracer, next_op++, &result);
    }
  }
  return result;
}

}  // namespace perfbench
