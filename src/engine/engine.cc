#include "engine/engine.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <utility>

#include "chase/fact_dump.h"
#include "common/strings.h"
#include "datalog/parser.h"
#include "owl/rdf_mapping.h"
#include "sparql/parser.h"
#include "translate/owl2ql_program.h"

namespace triq {

namespace {

using chase::Term;
using datalog::Atom;
using datalog::PredicateId;
using datalog::Rule;

/// A program is monotone over already-stored facts when no proper rule
/// negates a body atom (constraints are exempt: they are re-checked in
/// full against the final instance on every run, so negation there
/// cannot leave stale conclusions behind).
bool IsMonotone(const datalog::Program& program) {
  for (const Rule& rule : program.rules()) {
    if (rule.IsConstraint()) continue;
    for (const Atom& atom : rule.body) {
      if (atom.negated) return false;
    }
  }
  return true;
}

/// Whether some atom of `program` names `pred`.
bool Mentions(const datalog::Program& program, PredicateId pred) {
  for (const Rule& rule : program.rules()) {
    for (const std::vector<Atom>* atoms : {&rule.body, &rule.head}) {
      for (const Atom& atom : *atoms) {
        if (atom.predicate == pred) return true;
      }
    }
  }
  return false;
}

/// Whether `cached` was taken from `snap`. Owners compare without taking
/// a reference, and an expired pointer keeps its control block, so it
/// never matches a newer snapshot.
bool SameSnapshot(const std::weak_ptr<const EngineSnapshot>& cached,
                  const EngineSnapshotPtr& snap) {
  return !cached.owner_before(snap) && !snap.owner_before(cached);
}

}  // namespace

std::string_view EntailmentRegimeName(EntailmentRegime regime) {
  switch (regime) {
    case EntailmentRegime::kNone: return "none";
    case EntailmentRegime::kActiveDomain: return "active-domain";
    case EntailmentRegime::kAll: return "all";
  }
  return "?";
}

Result<EntailmentRegime> ParseEntailmentRegime(std::string_view name) {
  for (EntailmentRegime regime :
       {EntailmentRegime::kNone, EntailmentRegime::kActiveDomain,
        EntailmentRegime::kAll}) {
    if (name == EntailmentRegimeName(regime)) return regime;
  }
  if (name == "plain") return EntailmentRegime::kNone;
  if (name == "active") return EntailmentRegime::kActiveDomain;
  return Status::InvalidArgument("unknown entailment regime '" +
                                 std::string(name) +
                                 "' (use none|active-domain|all)");
}

chase::ChaseOptions EngineOptions::ToChaseOptions() const {
  chase::ChaseOptions options;
  options.track_provenance = track_provenance;
  options.num_threads = num_threads;
  options.max_facts = max_facts;
  options.max_null_depth = max_null_depth;
  return options;
}

// ---- PreparedQuery ----------------------------------------------------

Result<std::unique_ptr<chase::Instance>> PreparedQuery::ChaseOverlay(
    const EngineSnapshot& snap, chase::ChaseStats* stats) const {
  // The empty program: the answers are whatever the data program
  // derived — read the snapshot directly.
  if (query_.program().rules().empty()) {
    return std::unique_ptr<chase::Instance>();
  }
  // The query's rules run after this closure is fixed, so its heads must
  // stay clear of it: a data rule mentioning one would never see what
  // the query derives, and an overlay relation would hide the snapshot's
  // facts of the same predicate.
  for (const Rule& rule : query_.program().rules()) {
    for (const Atom& head : rule.head) {
      const char* clash =
          Mentions(*snap.program, head.predicate)
              ? "which the data program mentions; AttachProgram the rules "
                "instead"
          : snap.instance.Find(head.predicate) != nullptr
              ? "which has loaded facts"
              : nullptr;
      if (clash != nullptr) {
        return Status::InvalidArgument(
            "query derives predicate '" +
            query_.program().dict().Text(head.predicate) + "', " + clash);
      }
    }
  }
  // The data closure is reused as the base — never re-derived, never
  // mutated — so a failed query chase (caps, deadline, inconsistency)
  // only discards this overlay.
  auto overlay = std::make_unique<chase::Instance>(
      chase::Instance::MakeOverlay(&snap.instance));
  TRIQ_RETURN_IF_ERROR(chase::RunChase(query_.program(), overlay.get(),
                                       engine_->QueryChaseOptions(), stats));
  return overlay;
}

Result<std::vector<chase::Tuple>> PreparedQuery::Evaluate(
    chase::ChaseStats* stats) {
  if (stats != nullptr) *stats = chase::ChaseStats{};
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, engine_->CurrentSnapshot());

  MutexLock lock(eval_->mu);
  if (!SameSnapshot(eval_->snapshot, snap)) {
    // First evaluation against this snapshot: chase, read the answers
    // and keep only them — the overlay dies here. A failure returns
    // before anything is replaced, so the last good evaluation stays
    // cached.
    TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<chase::Instance> overlay,
                          ChaseOverlay(*snap, stats));
    eval_->answers = chase::ConstantTuples(
        (overlay != nullptr ? *overlay : snap->instance)
            .Find(query_.answer_predicate()));
    eval_->snapshot = snap;
  }
  return eval_->answers;
}

// ---- Engine: construction and loading ---------------------------------

Engine::Engine(EngineOptions options)
    : options_(options),
      dict_(std::make_shared<Dictionary>()),
      base_(dict_),
      // The fixed τ_owl2ql_core program (Section 5.2) gives the two
      // reasoning regimes their semantics; materializing it once here is
      // what lets every SPARQL query share one inference closure.
      program_(std::make_shared<const datalog::Program>(
          options_.regime == EntailmentRegime::kNone
              ? datalog::Program(dict_)
              : translate::BuildOwl2QlCoreProgram(dict_))),
      core_rule_prefix_(program_->rules().size()) {}

Engine::~Engine() {
  // Best-effort flush of batched appends; nothing to report to.
  if (journal_ != nullptr) TRIQ_IGNORE_STATUS(journal_->Sync());
}

Result<std::unique_ptr<Engine>> Engine::Open(EngineOptions options) {
  auto engine = std::make_unique<Engine>(options);
  if (options.journal_path.empty()) return engine;

  Journal::Recovery recovery;
  TRIQ_ASSIGN_OR_RETURN(
      std::unique_ptr<Journal> journal,
      Journal::Open(options.journal_path, options.journal_fsync,
                    options.journal_batch_interval, &recovery));

  // Rebuild the session with the journal still detached, so replay runs
  // the ordinary mutators without re-appending: the checkpoint image's
  // records, then the tail's, in append order.
  for (const Journal::Record& record : recovery.records) {
    TRIQ_RETURN_IF_ERROR(engine->ReplayRecord(record));
  }

  MutexLock lock(engine->writer_mu_);
  engine->journal_recovered_records_ = recovery.records.size();
  engine->journal_truncated_bytes_ = recovery.truncated_bytes;
  engine->journal_ = std::move(journal);
  return engine;
}

Status Engine::ReplayRecord(const Journal::Record& record) {
  auto field = [&](size_t i) -> const std::string& {
    static const std::string kEmpty;
    return i < record.fields.size() ? record.fields[i] : kEmpty;
  };
  switch (record.op) {
    case Journal::Op::kAddTriple:
      if (record.fields.size() != 3) break;
      return AddTriple(field(0), field(1), field(2));
    case Journal::Op::kLoadTurtle:
      if (record.fields.size() != 1) break;
      return LoadTurtle(field(0));
    case Journal::Op::kAttachRules:
      if (record.fields.size() != 1) break;
      return AttachRules(field(0));
    case Journal::Op::kLoadFactsBlob: {
      if (record.fields.size() != 2) break;
      // Field 0 records whether the source shared the engine dictionary:
      // decoding over dict_ then reproduces the original term ids
      // exactly, while a foreign source decodes over a stand-in
      // dictionary (same dense ids as the original foreign one) and
      // re-interns through the same append path as the original call.
      const bool engine_dict = field(0) == "1";
      std::shared_ptr<Dictionary> target =
          engine_dict ? dict_ : std::make_shared<Dictionary>();
      TRIQ_ASSIGN_OR_RETURN(
          chase::Instance loaded,
          chase::LoadFactsFromString(field(1), std::move(target),
                                     "journal record"));
      return LoadDatabase(std::move(loaded));
    }
    case Journal::Op::kMaterialize: {
      Result<chase::ChaseStats> stats = Materialize();
      return stats.ok() ? Status::OK() : stats.status();
    }
  }
  return Status::DataLoss("journal record op " +
                          std::to_string(static_cast<int>(record.op)) +
                          " has malformed fields");
}

Status Engine::JournalOp(Journal::Op op, std::vector<std::string> fields) {
  if (journal_ == nullptr) return Status::OK();
  return journal_->Append(op, fields);
}

chase::ChaseOptions Engine::QueryChaseOptions() const {
  chase::ChaseOptions options = options_.ToChaseOptions();
  if (options_.query_deadline.count() > 0) {
    options.deadline =
        std::chrono::steady_clock::now() + options_.query_deadline;
  }
  return options;
}

Status Engine::AppendFacts(const chase::Instance& src,
                           const chase::SaturatedSizes& from,
                           std::vector<Term>* null_map,
                           chase::Instance* dst) {
  const bool foreign = src.dict_ptr().get() != dict_.get();
  // Source nulls are re-allocated in the destination, preserving depths
  // and identity sharing (two occurrences of one source null map to one
  // destination null); nulls already mapped keep their mapping.
  null_map->resize(src.null_count(), Term());
  // Deterministic predicate order: relations() is an unordered map, and
  // null re-allocation order should not depend on its iteration order.
  std::vector<PredicateId> predicates;
  predicates.reserve(src.relations().size());
  for (const auto& [pred, rel] : src.relations()) predicates.push_back(pred);
  std::sort(predicates.begin(), predicates.end());

  chase::Tuple mapped;
  for (PredicateId pred : predicates) {
    const chase::Relation* rel = src.Find(pred);
    PredicateId dst_pred =
        foreign ? dict_->Intern(src.dict().Text(pred)) : pred;
    auto it = from.find(pred);
    for (size_t i = it != from.end() ? it->second : 0; i < rel->size(); ++i) {
      mapped.clear();
      for (Term t : rel->tuple(i)) {
        if (t.IsNull()) {
          Term& remapped = (*null_map)[t.null_id()];
          if (remapped == Term()) {
            remapped = dst->AllocateNull(src.NullDepth(t));
          }
          mapped.push_back(remapped);
        } else if (foreign) {
          mapped.push_back(
              Term::Constant(dict_->Intern(src.dict().Text(t.symbol()))));
        } else {
          mapped.push_back(t);
        }
      }
      TRIQ_RETURN_IF_ERROR(
          dst->AddFactChecked(dst_pred, mapped).status());
    }
  }
  return Status::OK();
}

Status Engine::CheckLoadable(const chase::Instance& src) const {
  // Every way a load can fail is validated here, BEFORE anything is
  // appended, so a rejected load leaves the session untouched instead of
  // half-applied (AppendFacts iterates predicate by predicate; an error
  // midway would strand the earlier predicates' facts in the base).
  EngineSnapshotPtr snap = std::atomic_load(&snapshot_);
  for (const auto& [pred, rel] : src.relations()) {
    // Looked up, not interned, so a rejected load leaves the dictionary
    // as it was: a name never interned has no relation.
    PredicateId engine_pred = src.dict_ptr().get() == dict_.get()
                                  ? pred
                                  : dict_->Find(src.dict().Text(pred));
    if (engine_pred == kInvalidSymbol) continue;
    // Arity mismatches are the one way AddFactChecked can fail below.
    for (const chase::Instance* dst :
         {&base_, snap != nullptr ? &snap->instance : nullptr}) {
      if (dst == nullptr) continue;
      const chase::Relation* existing = dst->Find(engine_pred);
      if (existing != nullptr && existing->arity() != rel.arity()) {
        return Status::InvalidArgument(
            "cannot load facts for predicate '" + dict_->Text(engine_pred) +
            "': width " + std::to_string(rel.arity()) +
            " conflicts with the existing relation's arity " +
            std::to_string(existing->arity()));
      }
    }
  }
  return Status::OK();
}

bool Engine::Adoptable(const chase::Instance& src) const {
  // Appending `src` to a never-materialized base with no facts and no
  // nulls reproduces `src` exactly (same predicates, tuple order and
  // null ids), so the storage can move instead. An empty source is
  // appended: adopting it would install its empty relations.
  return src.dict_ptr().get() == dict_.get() && src.TotalFacts() > 0 &&
         std::atomic_load(&snapshot_) == nullptr && base_.TotalFacts() == 0 &&
         base_.null_count() == 0;
}

Status Engine::IngestValidated(chase::Instance src) {
  if (Adoptable(src)) {
    base_ = std::move(src);
  } else {
    std::vector<Term> null_map;
    TRIQ_RETURN_IF_ERROR(AppendFacts(src, {}, &null_map, &base_));
  }
  // Only a successful load dirties the session: a rejected one left the
  // base untouched, so the published closure is still exact.
  needs_materialize_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Engine::LoadTurtle(std::string_view text) {
  TRIQ_ASSIGN_OR_RETURN(chase::Instance src,
                        chase::Instance::FromTurtle(text, dict_));
  MutexLock lock(writer_mu_);
  // WAL ordering: validate, journal, apply. A record lands in the
  // journal only for a mutation that will succeed, and a mutation
  // applies only once its record is written — so recovery replay is
  // exactly the applied prefix of the op sequence.
  TRIQ_RETURN_IF_ERROR(CheckLoadable(src));
  TRIQ_RETURN_IF_ERROR(
      JournalOp(Journal::Op::kLoadTurtle, {std::string(text)}));
  return IngestValidated(std::move(src));
}

Status Engine::LoadTurtleFile(const std::string& path) {
  if (journal_ != nullptr) {
    // The journal must capture the file's *content* (the file may be
    // rewritten or gone by recovery time), so the journaled session
    // trades the streaming parse for an in-memory one.
    TRIQ_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    return LoadTurtle(text);
  }
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open " + path);
  }
  TRIQ_ASSIGN_OR_RETURN(chase::Instance src,
                        chase::Instance::FromTurtle(in, dict_));
  MutexLock lock(writer_mu_);
  TRIQ_RETURN_IF_ERROR(CheckLoadable(src));
  return IngestValidated(std::move(src));
}

Status Engine::LoadFacts(const std::string& path) {
  // A private dictionary: AppendFacts interns the dump's names only
  // once CheckLoadable (which looks them up) has accepted the load.
  TRIQ_ASSIGN_OR_RETURN(
      chase::Instance loaded,
      chase::LoadFacts(path, std::make_shared<Dictionary>()));
  return LoadDatabase(std::move(loaded));
}

Status Engine::LoadDatabase(chase::Instance database) {
  MutexLock lock(writer_mu_);
  return LoadDatabaseLocked(std::move(database));
}

Status Engine::LoadDatabaseLocked(chase::Instance database) {
  TRIQ_RETURN_IF_ERROR(CheckLoadable(database));
  if (journal_ != nullptr) {
    // Every source is journaled as its own serialization; replay decodes
    // it over the same dictionary state, reproducing this load.
    std::string blob;
    TRIQ_RETURN_IF_ERROR(chase::SaveFactsToString(database, &blob));
    const bool engine_dict = database.dict_ptr().get() == dict_.get();
    TRIQ_RETURN_IF_ERROR(JournalOp(Journal::Op::kLoadFactsBlob,
                                   {engine_dict ? "1" : "0", blob}));
  }
  return IngestValidated(std::move(database));
}

Status Engine::LoadGraph(const rdf::Graph& graph) {
  MutexLock lock(writer_mu_);
  return LoadDatabaseLocked(chase::Instance::FromGraph(graph));
}

Status Engine::AddTriple(std::string_view subject, std::string_view predicate,
                         std::string_view object) {
  chase::TripleStager stager(dict_);
  stager.Add(subject, predicate, object);
  chase::Instance src = std::move(stager).Finish();
  MutexLock lock(writer_mu_);
  TRIQ_RETURN_IF_ERROR(CheckLoadable(src));
  TRIQ_RETURN_IF_ERROR(JournalOp(
      Journal::Op::kAddTriple,
      {std::string(subject), std::string(predicate), std::string(object)}));
  return IngestValidated(std::move(src));
}

// ---- Engine: ontologies and rule programs ------------------------------

Status Engine::AttachOntology(const owl::Ontology& ontology) {
  rdf::Graph graph(dict_);
  owl::OntologyToGraph(ontology, &graph);
  MutexLock lock(writer_mu_);
  return LoadDatabaseLocked(chase::Instance::FromGraph(graph));
}

Status Engine::AttachProgram(const datalog::Program& program) {
  if (program.dict_ptr().get() != dict_.get()) {
    return Status::InvalidArgument(
        "attached programs must be built over the engine dictionary "
        "(Engine::dict_ptr())");
  }
  MutexLock lock(writer_mu_);
  if (journal_ != nullptr) {
    // Replay (AttachRules) and a checkpoint's reopen parse the rules
    // back from this text, which prints a constant's raw text: one that
    // is not a bare identifier ("New York", "?city") would come back as
    // something else, or fail to parse. Refuse what cannot come back.
    std::string text = program.ToString();
    Result<datalog::Program> parsed = datalog::ParseProgram(text, dict_);
    if (!parsed.ok() || parsed->size() != program.size() ||
        !std::equal(program.rules().begin(), program.rules().end(),
                    parsed->rules().begin(),
                    [](const Rule& a, const Rule& b) {
                      return a.body == b.body && a.head == b.head;
                    })) {
      return Status::InvalidArgument(
          "a journaled session attaches only rules that parse back from "
          "their datalog text, and these do not: " + text);
    }
    TRIQ_RETURN_IF_ERROR(
        JournalOp(Journal::Op::kAttachRules, {std::move(text)}));
  }
  auto extended = std::make_shared<datalog::Program>(*program_);
  TRIQ_RETURN_IF_ERROR(extended->Append(program));
  program_ = std::move(extended);
  // New rules invalidate the published closure, and the next
  // materialization must restart from the pristine base: the appended
  // rules may derive through facts the old program already consumed.
  rules_dirty_ = true;
  needs_materialize_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Engine::AttachRules(std::string_view rule_text) {
  TRIQ_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(rule_text, dict_));
  return AttachProgram(program);
}

// ---- Engine: materialization -------------------------------------------

Status Engine::MaterializeLocked(chase::ChaseStats* stats) {
  const chase::ChaseOptions options = chase_options();
  TRIQ_RETURN_IF_ERROR(chase::ValidateChaseOptions(options));
  if (IsMaterialized()) return Status::OK();  // clean: nothing to do

  if (options_.require_termination_guarantee) {
    // Gate before any chase round: a program the analyzer cannot prove
    // terminating is rejected outright, witness cycle attached.
    analysis::TerminationVerdict verdict =
        analysis::AnalyzeTermination(*program_);
    if (verdict.termination != analysis::Termination::kGuaranteedTerminating) {
      std::string message =
          "termination guarantee required, but static analysis cannot prove "
          "the data program's chase terminates";
      if (!verdict.witness.empty()) message += ": " + verdict.witness;
      return Status::InvalidArgument(message);
    }
  }

  EngineSnapshotPtr prev = std::atomic_load(&snapshot_);
  // Incremental re-saturation resumes the published closure with exactly
  // the appended base facts as the delta. Soundness needs monotonicity
  // (ResumeChase's contract) and an unchanged rule set; provenance
  // sessions always rebuild, because CloneFacts drops the derivation
  // records proof extraction needs.
  const bool incremental = prev != nullptr && !rules_dirty_ &&
                           !options.track_provenance && IsMonotone(*program_);
  chase::Instance next(dict_);
  std::vector<Term> null_map;
  Status status;
  if (incremental) {
    next = prev->instance.CloneFacts();
    // Base nulls first seen in this delta get fresh snapshot nulls;
    // nulls shared with already-consumed facts reuse their committed
    // mapping, so identity sharing across deltas is preserved.
    null_map = base_null_map_;
    status = AppendFacts(base_, base_consumed_, &null_map, &next);
    if (status.ok()) {
      status = chase::ResumeChase(*program_, &next, prev->saturated, options,
                                  stats);
    }
  } else {
    // Rebuild from the pristine base: the clone keeps base null ids, so
    // the base -> snapshot null mapping is the identity.
    next = base_.CloneFacts();
    null_map.reserve(base_.null_count());
    for (uint32_t i = 0; i < base_.null_count(); ++i) {
      null_map.push_back(Term::Null(i));
    }
    status = chase::RunChase(*program_, &next, options, stats);
  }
  if (!status.ok()) {
    // Publish nothing: the previous snapshot keeps serving, and the
    // session stays dirty so the next operation retries.
    return status;
  }

  // Counters move together, and only for completed materializations — a
  // failing session retried N times must not drift rebuilds() ahead of
  // materializations().
  if (!incremental) rebuild_count_.fetch_add(1, std::memory_order_relaxed);
  materialize_count_.fetch_add(1, std::memory_order_relaxed);
  chase::SaturatedSizes saturated = next.RelationSizes();
  auto snap = std::make_shared<const EngineSnapshot>(
      std::move(next), std::move(saturated), program_);
  base_consumed_ = base_.RelationSizes();
  base_null_map_ = std::move(null_map);
  rules_dirty_ = false;
  std::atomic_store(&snapshot_,
                    EngineSnapshotPtr(std::move(snap)));
  needs_materialize_.store(false, std::memory_order_release);
  if (journal_ != nullptr) {
    // Compact: a materialization subsumes the whole journaled history,
    // so the journal is rewritten as the image that replays it — the
    // pristine base, the user rules in the syntax AttachRules parses
    // back, and one kMaterialize. kMaterialize is appended first so a
    // crash *during* the checkpoint still replays the materialization
    // from the old file. A checkpoint failure is surfaced but the
    // closure above stays published — the session is consistent, merely
    // un-compacted.
    TRIQ_RETURN_IF_ERROR(JournalOp(Journal::Op::kMaterialize, {}));
    std::vector<Journal::Record> image = {
        {Journal::Op::kLoadFactsBlob, {"1", ""}}};
    TRIQ_RETURN_IF_ERROR(chase::SaveFactsToString(base_, &image[0].fields[1]));
    std::string rules;
    for (size_t i = core_rule_prefix_; i < program_->size(); ++i) {
      rules += datalog::RuleToString(program_->rules()[i], *dict_) + " .\n";
    }
    if (!rules.empty()) {
      image.push_back({Journal::Op::kAttachRules, {std::move(rules)}});
    }
    image.push_back({Journal::Op::kMaterialize, {}});
    TRIQ_RETURN_IF_ERROR(journal_->Checkpoint(image));
  }
  return Status::OK();
}

Result<chase::ChaseStats> Engine::Materialize() {
  MutexLock lock(writer_mu_);
  chase::ChaseStats stats;
  TRIQ_RETURN_IF_ERROR(MaterializeLocked(&stats));
  return stats;
}

Result<EngineSnapshotPtr> Engine::CurrentSnapshot() {
  // Fast path: a clean session serves the published snapshot with one
  // acquire load and one shared_ptr copy — no locks.
  if (!needs_materialize_.load(std::memory_order_acquire)) {
    return std::atomic_load(&snapshot_);
  }
  if (!writer_mu_.try_lock()) {
    // Another thread is writing (loading or re-materializing). Serve the
    // latest published snapshot — consistent, possibly one version
    // behind — instead of stalling every reader behind the writer. The
    // writing thread itself still observes its own writes: its next read
    // acquires the lock uncontended.
    EngineSnapshotPtr published = std::atomic_load(&snapshot_);
    if (published != nullptr) return published;
    writer_mu_.lock();  // nothing published yet: wait for the first closure
  }
  MutexLock lock(writer_mu_, kAdoptLock);
  TRIQ_RETURN_IF_ERROR(MaterializeLocked(nullptr));
  return std::atomic_load(&snapshot_);
}

Result<std::vector<chase::Tuple>> Engine::Answers(
    std::string_view predicate) {
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  return chase::ConstantTuples(snap->instance.Find(predicate));
}

EngineStats Engine::stats() const {
  EngineStats out;
  out.materializations = materialize_count_.load(std::memory_order_relaxed);
  out.rebuilds = rebuild_count_.load(std::memory_order_relaxed);
  out.sparql_cache_hits = sparql_cache_hits_.load(std::memory_order_relaxed);
  out.sparql_cache_misses =
      sparql_cache_misses_.load(std::memory_order_relaxed);
  out.sparql_cache_evictions =
      sparql_cache_evictions_.load(std::memory_order_relaxed);
  if (journal_ != nullptr) {
    // journal_ is set once inside Open before the engine is shared, so
    // this lock-free read is safe; the stats themselves are atomics.
    out.journal_enabled = true;
    JournalStats js = journal_->stats();
    out.journal_records = js.records_appended;
    out.journal_bytes = js.bytes_appended;
    out.journal_syncs = js.syncs;
    out.journal_checkpoints = js.checkpoints;
    out.journal_recovered_records = journal_recovered_records_;
    out.journal_truncated_bytes = journal_truncated_bytes_;
  }
  out.dictionary_symbols = dict_->size();
  MutexLock lock(cache_mu_);
  out.sparql_cache_size = sparql_lru_.size();
  return out;
}

analysis::ProgramAnalysis Engine::AnalyzeProgram(
    const std::vector<std::string>& output_predicates) const {
  MutexLock lock(writer_mu_);
  analysis::LintOptions lint;
  lint.edb_known = true;
  for (const auto& [pred, rel] : base_.relations()) {
    lint.edb_predicates.insert(pred);
  }
  // Looked up, not interned (this method is const): a name the session
  // never interned names no predicate the lint could report.
  for (const std::string& name : output_predicates) {
    SymbolId id = dict_->Find(name);
    if (id != kInvalidSymbol) lint.output_predicates.insert(id);
  }
  lint.exempt_prefix = core_rule_prefix_;
  // The shadow program is built over a private dictionary —
  // CanonicalRuleText compares structure, not symbol ids — so analysis
  // never interns core vocabulary into a kNone session.
  datalog::Program shadow(std::make_shared<Dictionary>());
  if (options_.regime != EntailmentRegime::kNone) {
    shadow = translate::BuildOwl2QlCoreProgram(shadow.dict_ptr());
    lint.shadow_program = &shadow;
  }
  return analysis::Analyze(*program_, lint);
}

// ---- Engine: queries ---------------------------------------------------

Result<PreparedQuery> Engine::Prepare(datalog::Program program,
                                      std::string_view answer_predicate) {
  if (program.dict_ptr().get() != dict_.get()) {
    return Status::InvalidArgument(
        "prepared programs must be built over the engine dictionary "
        "(Engine::dict_ptr())");
  }
  TRIQ_ASSIGN_OR_RETURN(
      core::TriqQuery query,
      core::TriqQuery::Create(std::move(program), answer_predicate));
  return PreparedQuery(this, std::move(query));
}

Result<PreparedQuery> Engine::Prepare(std::string_view rule_text,
                                      std::string_view answer_predicate) {
  if (rule_text.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    // The empty program: evaluation reads the answer relation the data
    // program derives.
    return Prepare(datalog::Program(dict_), answer_predicate);
  }
  TRIQ_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(rule_text, dict_));
  return Prepare(std::move(program), answer_predicate);
}

// ---- Engine: SPARQL ----------------------------------------------------

/// One cached SPARQL plan: the translation (for answer decoding), the
/// prepared query (its own eval state is never filled), and the
/// mappings last decoded with the snapshot they came from — the plan's
/// only cached evaluation. Shared (not owned) by the LRU so in-flight
/// evaluations survive eviction.
struct Engine::SparqlEntry {
  SparqlEntry(translate::TranslatedQuery t, PreparedQuery p)
      : translated(std::move(t)), prepared(std::move(p)) {}

  translate::TranslatedQuery translated;
  PreparedQuery prepared;

  Mutex mu;
  // Held weakly: a plan never keeps a superseded closure alive.
  std::weak_ptr<const EngineSnapshot> snapshot TRIQ_GUARDED_BY(mu);
  sparql::MappingSet mappings TRIQ_GUARDED_BY(mu);
};

Result<sparql::MappingSet> Engine::Query(const std::string& sparql_text) {
  std::shared_ptr<SparqlEntry> entry;
  {
    MutexLock lock(cache_mu_);
    auto it = sparql_index_.find(std::string_view(sparql_text));
    if (it != sparql_index_.end()) {
      sparql_lru_.splice(sparql_lru_.begin(), sparql_lru_, it->second);
      entry = sparql_lru_.front().second;
      sparql_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (entry == nullptr) {
    sparql_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    // Build the plan outside cache_mu_: parsing and translation are
    // slow, and concurrent queries for other texts must not serialize
    // behind them.
    TRIQ_ASSIGN_OR_RETURN(auto pattern,
                          sparql::ParsePattern(sparql_text, dict_.get()));
    TRIQ_ASSIGN_OR_RETURN(
        translate::TranslatedQuery translated,
        TranslatePattern(*pattern, dict_, QueryTranslationOptions()));
    datalog::Program query_program = std::move(translated.program);
    translated.program = datalog::Program(dict_);
    TRIQ_ASSIGN_OR_RETURN(
        PreparedQuery prepared,
        Prepare(std::move(query_program),
                dict_->Text(translated.answer_predicate)));
    auto built = std::make_shared<SparqlEntry>(std::move(translated),
                                               std::move(prepared));

    MutexLock lock(cache_mu_);
    auto it = sparql_index_.find(std::string_view(sparql_text));
    if (it != sparql_index_.end()) {
      // Two threads raced on the same miss: adopt the winner's entry and
      // drop ours.
      sparql_lru_.splice(sparql_lru_.begin(), sparql_lru_, it->second);
      entry = sparql_lru_.front().second;
    } else {
      sparql_lru_.emplace_front(sparql_text, std::move(built));
      sparql_index_.emplace(std::string_view(sparql_lru_.front().first),
                            sparql_lru_.begin());
      entry = sparql_lru_.front().second;
      if (options_.sparql_cache_capacity > 0 &&
          sparql_lru_.size() > options_.sparql_cache_capacity) {
        sparql_index_.erase(std::string_view(sparql_lru_.back().first));
        sparql_lru_.pop_back();  // in-flight holders keep it alive
        sparql_cache_evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  MutexLock lock(entry->mu);
  if (!SameSnapshot(entry->snapshot, snap)) {
    // First query of this text against this snapshot: check, chase,
    // decode, and keep only the rows — the overlay dies here. Later hits
    // on an unchanged session return the cached mappings. A failure
    // returns before anything is replaced, so it caches nothing.
    TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<chase::Instance> overlay,
                          entry->prepared.ChaseOverlay(*snap, nullptr));
    entry->mappings = AnswersToMappings(
        entry->translated, overlay != nullptr ? *overlay : snap->instance);
    entry->snapshot = snap;
  }
  return entry->mappings;
}

// ---- Engine: explain ---------------------------------------------------

translate::TranslationOptions Engine::QueryTranslationOptions() const {
  translate::TranslationOptions translation;
  switch (options_.regime) {
    case EntailmentRegime::kNone:
      translation.regime = translate::Regime::kPlain;
      break;
    case EntailmentRegime::kActiveDomain:
      translation.regime = translate::Regime::kActiveDomain;
      break;
    case EntailmentRegime::kAll:
      translation.regime = translate::Regime::kAll;
      break;
  }
  // τ_owl2ql_core is part of the engine's data program (attached at
  // construction under a reasoning regime) and is materialized once —
  // the per-query program carries only the pattern's own rules.
  translation.include_owl2ql_core = false;
  return translation;
}

Result<std::string> Engine::ExplainProgram() {
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  return chase::ExplainProgramPlans(*snap->program, snap->instance,
                                    chase_options());
}

Result<std::string> Engine::ExplainQuery(const std::string& sparql_text) {
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  // Parse + translate only — no plan-cache entry: EXPLAIN must not
  // affect (or be limited by) query execution state. The translated
  // program's plans are costed against the materialized snapshot the
  // query would actually join over.
  TRIQ_ASSIGN_OR_RETURN(auto pattern,
                        sparql::ParsePattern(sparql_text, dict_.get()));
  TRIQ_ASSIGN_OR_RETURN(
      translate::TranslatedQuery translated,
      TranslatePattern(*pattern, dict_, QueryTranslationOptions()));
  return chase::ExplainProgramPlans(translated.program, snap->instance,
                                    QueryChaseOptions());
}

}  // namespace triq
