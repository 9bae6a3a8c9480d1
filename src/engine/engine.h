#ifndef TRIQ_ENGINE_ENGINE_H_
#define TRIQ_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyze.h"
#include "chase/chase.h"
#include "chase/instance.h"
#include "common/dictionary.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/triq.h"
#include "datalog/program.h"
#include "engine/journal.h"
#include "owl/ontology.h"
#include "rdf/graph.h"
#include "sparql/mapping.h"
#include "translate/sparql_to_datalog.h"

namespace triq {

/// Which SPARQL entailment regime `Engine::Query` evaluates basic graph
/// patterns under (Sections 5.1-5.3 of the paper):
///  * kNone — plain SPARQL over the stored triples (τ_bgp).
///  * kActiveDomain — the OWL 2 QL core direct-semantics regime with the
///    active-domain restriction J·K^U: variables *and* blank nodes range
///    over the graph's constants (τ^U_bgp, Theorem 5.3).
///  * kAll — the relaxed regime J·K^All of Section 5.3: blank nodes may
///    take invented (null) witnesses; only proper variables are
///    C(·)-guarded (τ^All_bgp).
/// Under the two reasoning regimes the engine materializes the fixed
/// τ_owl2ql_core program once, so every query shares one inference
/// closure instead of re-deriving it.
enum class EntailmentRegime { kNone, kActiveDomain, kAll };

/// The regime's name: `none`, `active-domain` or `all`.
std::string_view EntailmentRegimeName(EntailmentRegime regime);

/// The regime named `name`: any name EntailmentRegimeName prints, plus
/// the aliases `plain` (kNone) and `active` (kActiveDomain).
/// InvalidArgument for anything else.
Result<EntailmentRegime> ParseEntailmentRegime(std::string_view name);

/// Builder-style session configuration: thread count, provenance,
/// safety caps, entailment regime, plan cache, query deadline and
/// journal are set here once; the engine threads them down, so callers
/// never construct chase::ChaseOptions themselves. Every session runs
/// the restricted, semi-naive chase with planner-chosen join strategies;
/// the chase's differential references (naive fixpoint, forced
/// strategies, written atom order, oblivious mode) live on
/// chase::ChaseOptions only.
///
///   triq::Engine engine(triq::EngineOptions()
///                           .SetNumThreads(4)
///                           .SetRegime(triq::EntailmentRegime::kAll));
struct EngineOptions {
  size_t num_threads = 1;
  bool track_provenance = false;
  size_t max_facts = chase::ChaseOptions().max_facts;
  uint32_t max_null_depth = chase::ChaseOptions().max_null_depth;
  EntailmentRegime regime = EntailmentRegime::kNone;

  /// Refuse to materialize unless static analysis proves the data
  /// program's chase terminates (analysis::AnalyzeTermination verdict
  /// kGuaranteedTerminating). When the verdict is kUnknown, Materialize
  /// returns InvalidArgument carrying the witness cycle *before any
  /// chase round runs* — the safety caps then never need to fire. Note
  /// the analysis is sound but incomplete: programs that terminate only
  /// under the restricted chase (τ_owl2ql_core among them) are rejected,
  /// so this knob suits user-authored rule sets, not the reasoning
  /// regimes.
  bool require_termination_guarantee = false;

  /// Bound on the SPARQL plan cache (distinct query texts); least
  /// recently used plans are evicted beyond it. 0 = unbounded.
  size_t sparql_cache_capacity = 128;

  /// Per-query wall-clock budget for the query-side chase (PreparedQuery
  /// evaluation and SPARQL patterns). A query whose chase overruns it
  /// fails with ResourceExhausted and leaves the session untouched.
  /// 0 (the default) disables the deadline. Data materialization is
  /// never deadlined — a half-built closure serves nobody.
  std::chrono::milliseconds query_deadline{0};

  /// Write-ahead journal file ("" = no durability, the default). Every
  /// mutation is journaled before it applies, and Engine::Open replays
  /// the journal (checkpoint + tail) back into an identical session.
  /// Journaling requires constructing the engine through Engine::Open —
  /// the plain constructor ignores this field (it cannot report
  /// recovery errors).
  std::string journal_path;
  /// When journal appends reach the disk (see JournalFsync).
  JournalFsync journal_fsync = JournalFsync::kBatch;
  /// Appends between fsyncs under JournalFsync::kBatch.
  size_t journal_batch_interval = 64;

  EngineOptions& SetNumThreads(size_t threads) {
    num_threads = threads;
    return *this;
  }
  EngineOptions& SetTrackProvenance(bool enabled) {
    track_provenance = enabled;
    return *this;
  }
  EngineOptions& SetMaxFacts(size_t facts) {
    max_facts = facts;
    return *this;
  }
  EngineOptions& SetMaxNullDepth(uint32_t depth) {
    max_null_depth = depth;
    return *this;
  }
  EngineOptions& SetRegime(EntailmentRegime r) {
    regime = r;
    return *this;
  }
  EngineOptions& SetRequireTerminationGuarantee(bool enabled) {
    require_termination_guarantee = enabled;
    return *this;
  }
  EngineOptions& SetSparqlCacheCapacity(size_t capacity) {
    sparql_cache_capacity = capacity;
    return *this;
  }
  EngineOptions& SetQueryDeadline(std::chrono::milliseconds deadline) {
    query_deadline = deadline;
    return *this;
  }
  EngineOptions& SetJournalPath(std::string path) {
    journal_path = std::move(path);
    return *this;
  }
  EngineOptions& SetJournalFsync(JournalFsync policy) {
    journal_fsync = policy;
    return *this;
  }
  EngineOptions& SetJournalBatchInterval(size_t interval) {
    journal_batch_interval = interval;
    return *this;
  }

  /// The chase configuration this session runs every materialization and
  /// query pass with. The engine layer owns this mapping; nothing above
  /// src/engine/ needs to name ChaseOptions.
  chase::ChaseOptions ToChaseOptions() const;
};

/// One published materialization: the closure Π(D) plus the bookkeeping
/// a resume needs. Its facts never change after publication, so any
/// number of reader threads may scan, probe, and overlay-chase it; the
/// permutation indexes they read are built on first use, under each
/// relation's own lock. Readers pin a snapshot with the shared_ptr; a
/// snapshot superseded by the next publication stays alive until its
/// last reader drops it (epoch/RCU reclamation for free).
struct EngineSnapshot {
  EngineSnapshot(chase::Instance inst, chase::SaturatedSizes sat,
                 uint64_t gen)
      : instance(std::move(inst)),
        saturated(std::move(sat)),
        generation(gen) {}

  chase::Instance instance;
  /// Per-predicate sizes at publication (the resume point for the next
  /// incremental materialization).
  chase::SaturatedSizes saturated;
  /// Materialization count at publication (1 = first closure).
  uint64_t generation;
};

using EngineSnapshotPtr = std::shared_ptr<const EngineSnapshot>;

/// Thread-safe registry of the predicates prepared queries own. A
/// query's derived (head) predicates and read (body) predicates are
/// claimed while any handle to it is alive, and released when the last
/// one drops; claims are reference-counted per program identity, so
/// identical queries share and conflicting ones are rejected. Shared via
/// shared_ptr between the Engine and every PreparedQuery/cached plan, so
/// release is safe in either destruction order.
///
/// Identity lifetime: a program's identity is its full text (never a
/// hash — whether two queries may share derived predicates is a
/// soundness question). The registry holds each text once, with an id
/// and a count of the tokens holding it, for exactly as long as some
/// token does: the last Release forgets the text. Ids come from a
/// counter that never repeats, so once every claim under an id is
/// released no live claim can name it again, and a later Acquire of the
/// same text simply starts a new identity.
class QueryClaims {
 public:
  /// One query's claim: returned by Acquire, surrendered to Release.
  struct Token {
    std::vector<datalog::PredicateId> heads;
    std::vector<datalog::PredicateId> reads;
    /// The registry's copy of the program text this token holds a
    /// reference on; null when the token is inactive (never acquired,
    /// or already released).
    const std::string* identity = nullptr;
  };

  /// Validates `heads`/`reads` (deduplicated internally) against every
  /// live claim and, on success, records them into `token` under the
  /// identity `program_text`. Conflicts — a head someone else derives or
  /// reads, a read someone else derives, under a different identity —
  /// return InvalidArgument and record nothing, identity included.
  Status Acquire(std::vector<datalog::PredicateId> heads,
                 std::vector<datalog::PredicateId> reads,
                 std::string program_text, const Dictionary& dict,
                 Token* token);

  /// Releases a token acquired above (idempotent; inactive tokens are
  /// ignored).
  void Release(Token* token);

  /// Whether some live query derives `pred` (the loader/attach guard).
  bool HeadClaimed(datalog::PredicateId pred) const;

  /// How many distinct program identities live tokens hold.
  size_t programs() const;

 private:
  // An identity id and the number of live tokens holding it.
  struct Claim {
    uint64_t identity;
    uint32_t refs;
  };

  mutable Mutex mu_;
  std::unordered_map<datalog::PredicateId, Claim> heads_ TRIQ_GUARDED_BY(mu_);
  std::unordered_map<datalog::PredicateId, Claim> reads_ TRIQ_GUARDED_BY(mu_);
  // Program text -> its identity. Node-based, so a token's pointer to
  // its key stays valid while the token holds a reference.
  std::unordered_map<std::string, Claim> identities_ TRIQ_GUARDED_BY(mu_);
  uint64_t next_identity_ TRIQ_GUARDED_BY(mu_) = 1;
};

class Engine;

/// A query parsed, validated, and classified once, then evaluated many
/// times against the engine's published snapshots. Obtained from
/// Engine::Prepare; holds a pointer to its engine, which must outlive
/// it. Move-only: the handle owns its predicate claims and releases
/// them on destruction, so dropping a PreparedQuery frees its head
/// predicates for later Prepares.
///
/// Evaluation model: the first Evaluate against a given snapshot runs
/// the chase of the *query program only* over a private overlay of that
/// snapshot — the data closure is reused, never re-derived and never
/// mutated — and later Evaluates against the same snapshot are pure
/// relation reads (zero chase rounds; `stats` reports the query-side
/// chase, so a cache hit leaves it all-zero). A failed query chase
/// (caps, deadline) discards the overlay and leaves both the session
/// and this handle's last good evaluation untouched.
///
/// Thread safety: one PreparedQuery may be evaluated from many threads
/// (evaluations of one handle serialize on an internal mutex; distinct
/// handles never contend).
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) noexcept = default;
  PreparedQuery& operator=(PreparedQuery&&) = delete;
  ~PreparedQuery();

  const datalog::Program& program() const { return query_.program(); }
  datalog::PredicateId answer_predicate() const {
    return query_.answer_predicate();
  }
  /// Strongest language class of the query program (classified once at
  /// Prepare time).
  core::Language language() const { return language_; }

  /// Certain answers of (Π_data ∪ Π_query, answer) over the loaded
  /// database: all-constant tuples of the answer predicate, identical to
  /// core::TriqQuery::Evaluate over the same facts. Materializes the
  /// engine first if needed. StatusCode::kInconsistent is the paper's ⊤.
  Result<std::vector<chase::Tuple>> Evaluate(
      chase::ChaseStats* stats = nullptr);

  /// Membership check: is `tuple` (constants) among the answers?
  Result<bool> Holds(const std::vector<std::string>& tuple);

 private:
  friend class Engine;

  /// A pinned evaluation: the snapshot it ran against plus the overlay
  /// holding the query-derived facts (null for the empty program — the
  /// answers then live in the snapshot itself). Holding this keeps both
  /// alive regardless of later publications or cache replacement.
  struct Pinned {
    EngineSnapshotPtr snapshot;
    std::shared_ptr<chase::Instance> overlay;
    const chase::Instance& answers() const {
      return overlay != nullptr ? *overlay : snapshot->instance;
    }
  };

  /// The per-handle evaluation cache. Boxed so the handle stays movable
  /// (the mutex is not).
  struct EvalState {
    Mutex mu;
    EngineSnapshotPtr snapshot TRIQ_GUARDED_BY(mu);
    std::shared_ptr<chase::Instance> overlay TRIQ_GUARDED_BY(mu);
  };

  PreparedQuery(Engine* engine, core::TriqQuery query,
                std::shared_ptr<QueryClaims> claims,
                QueryClaims::Token token)
      : engine_(engine),
        query_(std::move(query)),
        language_(query_.Classify()),
        claims_(std::move(claims)),
        token_(std::move(token)),
        eval_(std::make_unique<EvalState>()) {}

  /// Evaluates (or reuses) the query chase against the engine's current
  /// snapshot and returns the pinned result.
  Result<Pinned> EvaluatePinned(chase::ChaseStats* stats);

  Engine* engine_;
  core::TriqQuery query_;
  core::Language language_;
  // Claim ownership; claims_ is null after a move-from, and the
  // destructor only releases while it is set.
  std::shared_ptr<QueryClaims> claims_;
  QueryClaims::Token token_;
  std::unique_ptr<EvalState> eval_;
};

/// Counters a running session exposes for ops introspection (all
/// monotonically increasing except the cache size and the live query
/// programs).
struct EngineStats {
  uint64_t materializations = 0;
  uint64_t rebuilds = 0;
  uint64_t sparql_cache_hits = 0;
  uint64_t sparql_cache_misses = 0;
  uint64_t sparql_cache_evictions = 0;
  size_t sparql_cache_size = 0;
  /// Symbols in the session dictionary (it never shrinks; every SPARQL
  /// plan-cache miss still interns the translation's fresh names).
  size_t dictionary_symbols = 0;
  /// Distinct program identities with live claims: prepared handles and
  /// cached SPARQL plans, counting identical programs once.
  size_t query_programs = 0;
  /// Journal activity (all zero without a journal): appends/bytes/syncs
  /// and checkpoints since Open, plus what recovery found at Open —
  /// replayed tail records and torn bytes truncated.
  bool journal_enabled = false;
  uint64_t journal_records = 0;
  uint64_t journal_bytes = 0;
  uint64_t journal_syncs = 0;
  uint64_t journal_checkpoints = 0;
  uint64_t journal_recovered_records = 0;
  uint64_t journal_truncated_bytes = 0;
};

/// The materialize-once / query-many session facade over the whole
/// stack: one interned Dictionary shared by loaders, ontologies, rule
/// programs, the chase, and SPARQL; an explicit Materialize() computing
/// Π(D) once; and two query paths (PreparedQuery for rule programs,
/// Query() for SPARQL text) that evaluate against that single closure.
///
///   triq::Engine engine;
///   engine.LoadTurtle("alice knows bob .");
///   engine.AttachRules("triple(?X, knows, ?Y) -> query(?X, ?Y) .");
///   auto q = engine.Prepare("", "query");            // or a rule text
///   auto answers = q->Evaluate();                    // chases once
///   auto again = q->Evaluate();                      // zero chase rounds
///
/// Concurrency model — immutable snapshots, one writer, many readers:
/// the materialized closure is published as a `shared_ptr<const
/// EngineSnapshot>` swapped atomically. Readers (Evaluate / Query /
/// Answers) pin the current snapshot and run lock-free against it;
/// query-derived facts live in private per-query overlays, never in the
/// shared closure. Writers (LoadX / AttachX / Materialize) serialize on
/// an internal mutex, build the next closure off to the side —
/// incrementally from the appended delta when the data program is
/// monotone, from the pristine base otherwise — and publish it in one
/// pointer swap. A reader that needs a snapshot while another thread is
/// already re-materializing serves the latest published one
/// (consistent, possibly one version behind) instead of blocking; the
/// thread that performed the write observes its own write as soon as
/// its Materialize returns. A failed materialization
/// publishes nothing: the previous snapshot keeps serving.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  /// Constructs an engine with crash recovery: when
  /// options.journal_path is set, loads the latest checkpoint, replays
  /// the journal tail (truncating at the first torn record), and
  /// attaches the journal so every further mutation is logged before it
  /// applies. Replay reproduces the original call sequence through the
  /// public mutators, so the rebuilt base is bit-identical for
  /// engine-dictionary sources and fact/null-identical (dictionary ids
  /// possibly permuted) for foreign-dictionary ones — either way
  /// chase::FactFingerprint matches the uncrashed run. With an empty
  /// journal_path this is just the constructor.
  static Result<std::unique_ptr<Engine>> Open(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }
  Dictionary& dict() { return *dict_; }
  const std::shared_ptr<Dictionary>& dict_ptr() const { return dict_; }

  // ---- Loading (all loaders share the engine dictionary) -------------

  /// Parses the Turtle subset of rdf::ParseTurtle into τ_db triples.
  /// Blank nodes `_:n<k>` become labeled nulls, as in Instance::FromGraph.
  Status LoadTurtle(std::string_view text);

  /// Streaming variant: reads `path` line by line (rdf::ParseTurtleStream),
  /// so large corpora never materialize as one in-memory string.
  Status LoadTurtleFile(const std::string& path);

  /// Loads a binary fact dump written by chase::SaveFacts. Symbols are
  /// re-interned into the engine dictionary (a dump loads correctly next
  /// to already-interned vocabulary) and nulls are re-allocated with
  /// their depths and identity sharing preserved.
  Status LoadFacts(const std::string& path);

  /// Adds an already-built RDF graph (the workload generators). Graphs
  /// over a foreign dictionary are re-interned by text.
  Status LoadGraph(const rdf::Graph& graph);

  /// Merges an already-built instance (e.g. core::CliqueDatabase). Moves
  /// the storage wholesale when the session is still empty and the
  /// dictionary is shared; otherwise facts are appended (foreign-
  /// dictionary symbols re-interned, nulls re-allocated).
  Status LoadDatabase(chase::Instance database);

  /// Adds one τ_db triple; interns the three strings as constants.
  Status AddTriple(std::string_view subject, std::string_view predicate,
                   std::string_view object);

  // ---- Ontologies and rule programs ----------------------------------

  /// Stores the ontology as RDF triples per Table 1 (Section 5.2). Under
  /// a reasoning regime the fixed τ_owl2ql_core program (attached at
  /// construction) gives the axioms their direct semantics; under kNone
  /// they are inert triples unless a rule library reads them.
  Status AttachOntology(const owl::Ontology& ontology);

  /// Appends a Datalog∃,¬s,⊥ rule set to the data program materialized
  /// by this session (OWL 2 RL, the Section 2 vocabulary libraries, or
  /// user rules). Must be built over the engine dictionary.
  Status AttachProgram(const datalog::Program& program);

  /// Convenience: parses `rule_text` over the engine dictionary and
  /// attaches it.
  Status AttachRules(std::string_view rule_text);

  /// The data program (attached rules, plus τ_owl2ql_core under a
  /// reasoning regime). Not synchronized against a concurrent AttachX —
  /// a documented escape hatch, hence exempt from the analysis.
  const datalog::Program& program() const TRIQ_NO_THREAD_SAFETY_ANALYSIS {
    return program_;
  }

  // ---- Materialization -----------------------------------------------

  /// Computes Π(D) for the data program: validates the chase options,
  /// builds the next snapshot off to the side (incrementally from the
  /// appended delta for monotone data programs, from the pristine base
  /// otherwise), and publishes it. Queries reuse the result. A clean,
  /// already-materialized session returns all-zero stats untouched.
  /// StatusCode::kInconsistent reports a constraint violation (⊤).
  Result<chase::ChaseStats> Materialize();

  /// True when Π(D) is computed and no facts/rules arrived since.
  bool IsMaterialized() const {
    return !needs_materialize_.load(std::memory_order_acquire);
  }

  /// The current snapshot, materializing first if needed. The returned
  /// pointer pins it: the instance stays valid and immutable for as
  /// long as the caller holds the pointer, regardless of concurrent
  /// writes (which publish NEW snapshots instead of mutating this one).
  Result<EngineSnapshotPtr> CurrentSnapshot();

  /// The materialized instance (materializing first if needed). The
  /// pointer stays valid until the next publication; prefer
  /// CurrentSnapshot() when other threads may write concurrently.
  Result<const chase::Instance*> MaterializedInstance();

  /// The pristine loaded facts (never chased). Writer-side state: not
  /// synchronized against concurrent loads — a documented escape hatch,
  /// hence exempt from the analysis.
  const chase::Instance& base() const TRIQ_NO_THREAD_SAFETY_ANALYSIS {
    return base_;
  }

  /// All-constant tuples of `predicate` in the materialized instance —
  /// the answer-reading idiom for sessions whose data program already
  /// derives the answers (materializing first if needed).
  Result<std::vector<chase::Tuple>> Answers(std::string_view predicate);

  /// How many times this session has (re)materialized, and how many of
  /// those were full rebuilds from the base facts (first materialization
  /// included). materializations() - rebuilds() = incremental delta
  /// re-saturations. Exposed for tests and ops introspection.
  uint64_t materializations() const {
    return materialize_count_.load(std::memory_order_relaxed);
  }
  uint64_t rebuilds() const {
    return rebuild_count_.load(std::memory_order_relaxed);
  }

  /// Session counters (materializations, SPARQL cache hit/miss/eviction).
  EngineStats stats() const;

  // ---- Static analysis -----------------------------------------------

  /// Runs the static analyzer (analysis::Analyze) over the session's
  /// data program without chasing anything: termination verdict,
  /// stratification, reliance-graph group count, and the lint pass. The
  /// loaded base relations are treated as the EDB (so reads of loaded
  /// predicates are not flagged underivable) and `output_predicates`
  /// names predicates consumed externally (query heads, answer
  /// relations) that must not be flagged unused. Under a reasoning
  /// regime the τ_owl2ql_core rules attached at construction are exempt
  /// from per-rule lints and act as the shadow program (user rules
  /// duplicating a core rule are flagged). Serializes with writers;
  /// never materializes.
  analysis::ProgramAnalysis AnalyzeProgram(
      const std::vector<std::string>& output_predicates = {}) const;

  // ---- Queries -------------------------------------------------------

  /// Validates (program, answer_predicate) as a TriqQuery whose head
  /// predicates are disjoint from the data program and the loaded facts,
  /// classifies it, and returns a PreparedQuery bound to this session.
  /// The program may be empty: evaluation then just reads the answer
  /// relation the data program derives. The handle owns its predicate
  /// claims; dropping it releases them.
  Result<PreparedQuery> Prepare(datalog::Program program,
                                std::string_view answer_predicate);

  /// Convenience: parses `rule_text` ("" for the empty program) over the
  /// engine dictionary and prepares it.
  Result<PreparedQuery> Prepare(std::string_view rule_text,
                                std::string_view answer_predicate);

  /// Evaluates a SPARQL graph pattern under the session's entailment
  /// regime: parses, translates (τ_bgp / τ^U_bgp / τ^All_bgp), prepares,
  /// and decodes the answers as solution mappings. Translation and
  /// preparation are cached per query text in an LRU of
  /// options().sparql_cache_capacity plans, so repeated calls reuse both
  /// the plan and (on an unchanged session) the evaluated answers.
  /// Thread-safe.
  Result<sparql::MappingSet> Query(const std::string& sparql_text);

  /// Renders the join plan of every data-program rule against the
  /// current materialized snapshot (chase::ExplainProgramPlans): one
  /// block per rule with join order, access paths and cardinality
  /// estimates under the session's chase options. Materializes first if
  /// needed — plans are costed on real relation statistics.
  Result<std::string> ExplainProgram();

  /// Translates `sparql_text` under the session's entailment regime
  /// (without caching or claiming predicates) and renders the join plan
  /// of every rule of the translated query program against the current
  /// snapshot. The EXPLAIN counterpart of Query().
  Result<std::string> ExplainQuery(const std::string& sparql_text);

 private:
  friend class PreparedQuery;

  struct SparqlEntry;  // defined in engine.cc

  chase::ChaseOptions chase_options() const {
    return options_.ToChaseOptions();
  }

  /// chase_options() plus the per-query wall-clock deadline (anchored at
  /// the call, so every evaluation gets a fresh budget).
  chase::ChaseOptions QueryChaseOptions() const;

  /// The SPARQL translation options for the session's entailment regime
  /// (the regime switch Query() and ExplainQuery() share).
  translate::TranslationOptions QueryTranslationOptions() const;

  /// Builds and publishes the next snapshot; a no-op when the session
  /// is clean. `stats` may be null.
  Status MaterializeLocked(chase::ChaseStats* stats) TRIQ_REQUIRES(writer_mu_);

  /// Appends the facts of `src` (over any dictionary) to `dst`: each
  /// relation from the tuple index `from` records for it (0 when
  /// absent), re-interning foreign symbols and remapping `src` nulls
  /// through `null_map` (extended with fresh `dst` nulls for nulls first
  /// seen here). Serves both loads into the base and the base delta a
  /// materialization appends to the next snapshot.
  Status AppendFacts(const chase::Instance& src,
                     const chase::SaturatedSizes& from,
                     std::vector<chase::Term>* null_map,
                     chase::Instance* dst);

  /// Rejects sources carrying facts for query-derived predicates or
  /// arity-conflicting relations, before anything is mutated — loads
  /// are all-or-nothing.
  Status CheckLoadable(const chase::Instance& src) const
      TRIQ_REQUIRES(writer_mu_);

  /// Appends freshly loaded facts to the base instance and marks the
  /// session for re-materialization.
  Status Ingest(const chase::Instance& src) TRIQ_REQUIRES(writer_mu_);

  /// Ingest minus the CheckLoadable gate (already run by the caller,
  /// who journaled in between).
  Status IngestValidated(const chase::Instance& src)
      TRIQ_REQUIRES(writer_mu_);

  /// Validates, journals (a kLoadFactsBlob record), and ingests one
  /// already-built source instance.
  Status IngestJournaled(const chase::Instance& src)
      TRIQ_REQUIRES(writer_mu_);

  /// LoadDatabase's body. `raw_dump` — the serialized image of
  /// `database`, when the caller already has one (Engine::LoadFacts) —
  /// is journaled as-is instead of re-serializing.
  Status LoadDatabaseLocked(chase::Instance database,
                            const std::string* raw_dump)
      TRIQ_REQUIRES(writer_mu_);

  /// Appends one record to the journal; a no-op without one. A failed
  /// append means the mutation it guards must not apply.
  Status JournalOp(Journal::Op op, std::vector<std::string> fields)
      TRIQ_REQUIRES(writer_mu_);

  /// Applies one recovered journal record through the public mutators.
  Status ReplayRecord(const Journal::Record& record);

  Result<PreparedQuery> PrepareInternal(datalog::Program program,
                                        std::string_view answer_predicate);

  EngineOptions options_;
  std::shared_ptr<Dictionary> dict_;

  // ---- Writer state (guarded by writer_mu_) --------------------------
  mutable Mutex writer_mu_;
  chase::Instance base_ TRIQ_GUARDED_BY(writer_mu_);
  datalog::Program program_ TRIQ_GUARDED_BY(writer_mu_);
  bool program_monotone_ TRIQ_GUARDED_BY(writer_mu_) = true;
  // Rules 0..core_rule_prefix_ of program_ are the τ_owl2ql_core rules
  // attached at construction (0 under EntailmentRegime::kNone); the lint
  // pass exempts them from per-rule diagnostics.
  size_t core_rule_prefix_ TRIQ_GUARDED_BY(writer_mu_) = 0;
  // Rules attached since the last snapshot.
  bool rules_dirty_ TRIQ_GUARDED_BY(writer_mu_) = false;
  // How much of base_ the snapshot lineage has consumed: per-predicate
  // fact counts, and the base-null -> snapshot-null remapping (base and
  // snapshot number their nulls independently once derived nulls
  // interleave). Committed only when a publication succeeds.
  chase::SaturatedSizes base_consumed_ TRIQ_GUARDED_BY(writer_mu_);
  std::vector<chase::Term> base_null_map_ TRIQ_GUARDED_BY(writer_mu_);
  // The write-ahead journal (null = no durability). Deliberately not
  // GUARDED_BY(writer_mu_): the pointer is set once by Open before the
  // engine is shared and never reassigned, and stats() reads it
  // lock-free; the journal's own mutex guards its file state.
  std::unique_ptr<Journal> journal_;
  // Accumulated user-attached rule text (datalog syntax) — the rules
  // half of the next checkpoint image. Maintained only when journaling.
  std::string journal_rules_text_ TRIQ_GUARDED_BY(writer_mu_);
  // What recovery found at Open (surfaced through stats()). Set once by
  // Open before the engine is shared, hence not guarded.
  uint64_t journal_recovered_records_ = 0;
  uint64_t journal_truncated_bytes_ = 0;

  // ---- Published state (atomic) --------------------------------------
  // The current snapshot, accessed with std::atomic_load/atomic_store.
  // Never reset to null once published; needs_materialize_ == false
  // implies snapshot_ != null (the reader fast path checks the flag
  // first, then loads the pointer).
  EngineSnapshotPtr snapshot_;
  std::atomic<bool> needs_materialize_{true};
  std::atomic<uint64_t> materialize_count_{0};
  std::atomic<uint64_t> rebuild_count_{0};

  // Predicate claims, shared with every PreparedQuery and cached plan.
  // Lock order: writer_mu_ before the claims mutex, never the reverse.
  std::shared_ptr<QueryClaims> claims_;

  // ---- SPARQL plan cache (guarded by cache_mu_) ----------------------
  // LRU of shared entries: lookups move the entry to the front;
  // insertion beyond sparql_cache_capacity evicts from the back.
  // Entries are shared_ptrs so an in-flight evaluation survives its
  // entry's eviction (claims release when the last reference drops).
  mutable Mutex cache_mu_;
  std::list<std::pair<std::string, std::shared_ptr<SparqlEntry>>> sparql_lru_
      TRIQ_GUARDED_BY(cache_mu_);
  // Keys view into the list nodes' strings (stable addresses).
  std::unordered_map<std::string_view, decltype(sparql_lru_)::iterator>
      sparql_index_ TRIQ_GUARDED_BY(cache_mu_);
  std::atomic<uint64_t> sparql_cache_hits_{0};
  std::atomic<uint64_t> sparql_cache_misses_{0};
  std::atomic<uint64_t> sparql_cache_evictions_{0};
};

}  // namespace triq

#endif  // TRIQ_ENGINE_ENGINE_H_
