// The write path, shared by serve_rw and owlql_sparql's traced run: the
// seeded write stream, the directory that holds a journal, the
// ontology-loaded Engine both replay writes on, and the replay of one
// ADD + MATERIALIZE through the calls Engine::Materialize makes on an
// incremental write.
#ifndef PERFBENCH_WRITE_PATH_H_
#define PERFBENCH_WRITE_PATH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "owlql_inputs.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

struct Write {
  std::string subject, predicate, object;
};

/// The seeded write stream: property and class assertions between the
/// ontology's individuals.
std::vector<Write> MakeWrites(const OwlqlSizes& sizes, uint64_t seed,
                              size_t count);

/// "<s> <p> <o>": the ADD line's argument, and the bytes a write adds.
std::string WriteBytes(const Write& w);

/// Creates `path` (and its parent) for a journal; removes the journal,
/// its checkpoint files and the directory on destruction.
class WorkDir {
 public:
  explicit WorkDir(std::string path);
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  ~WorkDir();
  std::string journal() const { return path_ + "/journal"; }

 private:
  std::string path_;
};

/// An Engine under kActiveDomain, opened over `journal` (fsync batch, as
/// serve_rw runs triq_server; "" for none), loaded with one LoadTurtle
/// per chunk and materialized: what serve_rw's LOAD lines and
/// MATERIALIZE leave in the server.
std::unique_ptr<triq::Engine> LoadedEngine(
    const std::vector<std::string>& chunks, const std::string& journal,
    RunResult* result);

/// Applies one write (AddTriple + Materialize) to `engine`. Traced, it
/// first replays the write through the calls Materialize makes on an
/// incremental write (CloneFacts of the published closure, ResumeChase,
/// FreezeAllIndexes), each as a child span of a `replay.write` span, and
/// afterwards times chase::SaveFactsToString of the new base, the image
/// a journaled Materialize checkpoints; returns that image's size (0
/// untraced).
size_t ReplayWrite(triq::Engine& engine, const Write& w, Tracer* tracer,
                   uint64_t op, RunResult* result);

/// The write-path layers in process: replays `count` seeded writes on a
/// journaled Engine loaded with the ontology (journal under `work_dir`,
/// removed afterwards), recording each write's spans and its journal
/// counters (`journal.records`, `journal.bytes`, `journal.checkpoints`
/// per write, and `journal.bytes_per_user_byte`).
void TraceWritePath(const OwlqlSizes& sizes, uint64_t seed, size_t count,
                    const std::string& work_dir, Tracer* tracer,
                    RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WRITE_PATH_H_
