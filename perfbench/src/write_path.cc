#include "write_path.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <random>
#include <utility>

#include "chase/chase.h"
#include "chase/fact_dump.h"
#include "chase/instance.h"

namespace perfbench {

std::vector<Write> MakeWrites(const OwlqlSizes& sizes, uint64_t seed,
                              size_t count) {
  std::mt19937_64 rng(DeriveSeed(seed, kWriteStream));
  const auto& o = sizes.ontology;
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  std::vector<Write> writes;
  for (size_t i = 0; i < count; ++i) {
    const std::string subject = "ind" + std::to_string(pick(o.num_individuals));
    if ((rng() & 1) != 0) {
      writes.push_back({subject, "prop" + std::to_string(pick(o.num_properties)),
                        "ind" + std::to_string(pick(o.num_individuals))});
    } else {
      writes.push_back(
          {subject, "rdf:type", "class" + std::to_string(pick(o.num_classes))});
    }
  }
  return writes;
}

std::string WriteBytes(const Write& w) {
  return w.subject + " " + w.predicate + " " + w.object;
}

namespace {

std::string Parent(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

WorkDir::WorkDir(std::string path) : path_(std::move(path)) {
  ::mkdir(Parent(path_).c_str(), 0755);
  ::mkdir(path_.c_str(), 0755);
}

WorkDir::~WorkDir() {
  for (const char* suffix : {"", ".ckpt", ".ckpt.tmp"}) {
    ::unlink((journal() + suffix).c_str());
  }
  ::rmdir(path_.c_str());
}

std::unique_ptr<triq::Engine> LoadedEngine(
    const std::vector<std::string>& chunks, const std::string& journal,
    RunResult* result) {
  triq::EngineOptions options;
  options.SetRegime(triq::EntailmentRegime::kActiveDomain);
  if (!journal.empty()) {
    options.SetJournalPath(journal).SetJournalFsync(triq::JournalFsync::kBatch);
  }
  auto opened = triq::Engine::Open(options);
  if (!opened.ok()) {
    result->Fail("opening the replay engine: " + opened.status().ToString());
    return std::make_unique<triq::Engine>(
        triq::EngineOptions().SetRegime(triq::EntailmentRegime::kActiveDomain));
  }
  std::unique_ptr<triq::Engine> engine = std::move(*opened);
  triq::Status status;
  for (const std::string& chunk : chunks) {
    if (status.ok()) status = engine->LoadTurtle(chunk);
  }
  if (status.ok()) status = engine->Materialize().status();
  if (!status.ok()) result->Fail("replay load: " + status.ToString());
  return engine;
}

size_t ReplayWrite(triq::Engine& engine, const Write& w, Tracer* tracer,
                   uint64_t op, RunResult* result) {
  Span whole(tracer, "replay.write", op);
  if (tracer != nullptr) {
    auto snapshot = engine.CurrentSnapshot();
    if (snapshot.ok()) {
      triq::chase::Instance next(engine.dict_ptr());
      {
        Span span(tracer, "chase.CloneFacts", op);
        next = (*snapshot)->instance.CloneFacts();
      }
      const triq::datalog::PredicateId triple = engine.dict().Intern("triple");
      const triq::chase::Tuple fact = {
          triq::chase::Term::Constant(engine.dict().Intern(w.subject)),
          triq::chase::Term::Constant(engine.dict().Intern(w.predicate)),
          triq::chase::Term::Constant(engine.dict().Intern(w.object))};
      TRIQ_IGNORE_STATUS(next.AddFactChecked(triple, fact).status());
      {
        Span span(tracer, "chase.ResumeChase", op);
        TRIQ_IGNORE_STATUS(triq::chase::ResumeChase(
            engine.program(), &next, (*snapshot)->saturated,
            engine.options().ToChaseOptions()));
      }
      {
        Span span(tracer, "chase.FreezeAllIndexes", op);
        next.FreezeAllIndexes();
      }
    }
  }
  triq::Status status;
  {
    Span span(tracer, "engine.AddTriple", op);
    status = engine.AddTriple(w.subject, w.predicate, w.object);
  }
  if (status.ok()) {
    Span span(tracer, "engine.Materialize", op);
    status = engine.Materialize().status();
  }
  if (!status.ok()) result->Fail("replay write: " + status.ToString());
  if (tracer == nullptr) return 0;
  std::string image;
  Span span(tracer, "chase.SaveFactsToString", op);
  TRIQ_IGNORE_STATUS(triq::chase::SaveFactsToString(engine.base(), &image));
  return image.size();
}

void TraceWritePath(const OwlqlSizes& sizes, uint64_t seed, size_t count,
                    const std::string& work_dir, Tracer* tracer,
                    RunResult* result) {
  WorkDir work(work_dir);
  const size_t problems = result->problems.size();
  const std::unique_ptr<triq::Engine> engine =
      LoadedEngine(OntologyTurtleChunks(sizes, 1 << 20), work.journal(),
                   result);
  if (result->problems.size() != problems) return;
  const std::vector<Write> writes = MakeWrites(sizes, seed, count);
  // Op ids of their own, apart from the query stream's.
  const uint64_t first_op = uint64_t{10} << 40;
  double journal_bytes = 0;
  double image_bytes = 0;
  double user_bytes = 0;
  for (size_t k = 0; k < writes.size(); ++k) {
    const uint64_t op = first_op + k;
    const triq::EngineStats before = engine->stats();
    image_bytes += static_cast<double>(
        ReplayWrite(*engine, writes[k], tracer, op, result));
    const triq::EngineStats after = engine->stats();
    tracer->Count("journal.records", static_cast<double>(
                                         after.journal_records -
                                         before.journal_records), op);
    tracer->Count("journal.bytes", static_cast<double>(after.journal_bytes -
                                                       before.journal_bytes),
                  op);
    tracer->Count("journal.checkpoints",
                  static_cast<double>(after.journal_checkpoints -
                                      before.journal_checkpoints),
                  op);
    journal_bytes +=
        static_cast<double>(after.journal_bytes - before.journal_bytes);
    user_bytes += static_cast<double>(WriteBytes(writes[k]).size());
  }
  // Journal appends plus the checkpoint image each Materialize writes,
  // over the bytes of triples written.
  tracer->Count("journal.bytes_per_user_byte",
                (journal_bytes + image_bytes) / std::max(user_bytes, 1.0));
}

}  // namespace perfbench
