// Crash-safe durability, end to end: a process killed at EVERY injected
// crash point (torn append, post-append, checkpoint write before the
// rename, right after the rename) must recover through Engine::Open to a
// state fingerprint-identical to a fresh engine that applied exactly the
// durable op prefix. Plus: a mid-chase abort publishes nothing, a
// cleanly closed journaled session reopens bit-identically, and a
// journal path naming a file that is not a journal is refused untouched.
//
// Crashes are real: the workload runs in a fork()ed child that
// _Exit(42)s inside the failpoint, exactly like kill -9 between two
// write() calls. The parent never constructs an engine itself — all
// engine work happens in single-threaded children, so fork stays safe
// under sanitizers.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/fact_dump.h"
#include "common/failpoint.h"
#include "datalog/parser.h"
#include "engine/engine.h"

namespace triq {
namespace {

using OpFn = std::function<Status(Engine&)>;

constexpr char kTcRules[] =
    "triple(?X, edge, ?Y) -> tc(?X, ?Y) .\n"
    "tc(?X, ?Y), triple(?Y, edge, ?Z) -> tc(?X, ?Z) .\n";

/// An op that loads a foreign-dictionary instance *containing nulls*
/// through LoadDatabase: the journal must capture it as a blob and
/// replay it through the same re-interning path (flag "0"), keeping
/// null allocation order — and therefore the fingerprint — identical.
Status LoadForeignNulls(Engine& engine) {
  auto dict = std::make_shared<Dictionary>();
  chase::Instance db(dict);
  db.AddFact("p", {"m1"});
  db.AddFact("p", {"m2"});
  auto program =
      datalog::ParseProgram("p(?X) -> exists ?Y anon(?X, ?Y) .\n", dict);
  if (!program.ok()) return program.status();
  TRIQ_RETURN_IF_ERROR(RunChase(*program, &db));
  return engine.LoadDatabase(std::move(db));
}

/// The canonical mutation sequence. Every op journals exactly ONE
/// record, so crash-failpoint evaluation k maps 1:1 onto op k. The two
/// Materialize calls exercise checkpoint compaction mid-history.
std::vector<OpFn> Workload() {
  return {
      [](Engine& e) { return e.LoadTurtle("a edge b .\nb edge c .\n"); },
      [](Engine& e) { return e.AttachRules(kTcRules); },
      [](Engine& e) { return e.AddTriple("c", "edge", "d"); },
      [](Engine& e) { return e.Materialize().status(); },
      [](Engine& e) { return e.AddTriple("d", "edge", "e"); },
      [](Engine& e) { return LoadForeignNulls(e); },
      [](Engine& e) {
        return e.AttachRules("triple(?X, edge, ?Y) -> reach(?Y) .\n");
      },
      [](Engine& e) { return e.Materialize().status(); },
      [](Engine& e) { return e.AddTriple("e", "edge", "f"); },
  };
}
constexpr size_t kWorkloadOps = 9;
constexpr size_t kFirstMaterializeOp = 4;  // 1-based index in Workload()

EngineOptions JournaledOptions(const std::string& wal) {
  return EngineOptions()
      .SetJournalPath(wal)
      .SetJournalFsync(JournalFsync::kAlways);
}

std::string FreshWal(const std::string& name) {
  const std::string wal = ::testing::TempDir() + "/" + name;
  std::remove(wal.c_str());
  std::remove((wal + ".ckpt.tmp").c_str());
  return wal;
}

/// Forks, runs `child`, returns its exit code (child must _Exit).
int ForkAndWait(const std::function<void()>& child) {
  pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    child();
    std::_Exit(120);  // child fell through without _Exit-ing
  }
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  if (!WIFEXITED(wstatus)) return -1;
  return WEXITSTATUS(wstatus);
}

/// Child body: run the workload against a journaled engine with `spec`
/// armed. _Exit(42) comes from inside the armed failpoint; 43 means the
/// workload completed without the failpoint firing (sweep exhausted).
void WorkloadChild(const std::string& wal, const std::string& spec) {
  if (!FailpointsConfigure(spec)) std::_Exit(90);
  auto engine = Engine::Open(JournaledOptions(wal));
  if (!engine.ok()) std::_Exit(91);
  for (const OpFn& op : Workload()) {
    if (!op(**engine).ok()) std::_Exit(92);
  }
  std::_Exit(43);
}

/// Child body: recover the crashed journal and compare — base
/// fingerprint AND materialized-closure fingerprint — against a fresh
/// journal-less engine that applied ops 1..prefix. _Exit(0) on match.
void VerifyChild(const std::string& wal, size_t prefix) {
  auto recovered = Engine::Open(JournaledOptions(wal));
  if (!recovered.ok()) std::_Exit(80);

  Engine reference{EngineOptions()};
  const std::vector<OpFn> ops = Workload();
  for (size_t i = 0; i < prefix; ++i) {
    if (!ops[i](reference).ok()) std::_Exit(81);
  }
  if (chase::FactFingerprint((*recovered)->base()) !=
      chase::FactFingerprint(reference.base())) {
    std::_Exit(82);
  }
  auto recovered_closure = (*recovered)->CurrentSnapshot();
  auto reference_closure = reference.CurrentSnapshot();
  if (!recovered_closure.ok() || !reference_closure.ok()) std::_Exit(83);
  if (chase::FactFingerprint((*recovered_closure)->instance) !=
      chase::FactFingerprint((*reference_closure)->instance)) {
    std::_Exit(84);
  }
  std::_Exit(0);
}

TEST(DurabilityTest, KillAtEveryAppendRecoversTheDurablePrefix) {
  // journal.sync.crash fires AFTER the k-th record is durable (prefix
  // k); journal.write.crash tears the k-th record mid-write (prefix
  // k-1). Sweeping k past the workload length proves the sweep actually
  // covered every append.
  struct Mode {
    const char* failpoint;
    size_t durable_at_k_offset;  // prefix = k - offset
  };
  for (const Mode& mode : {Mode{"journal.sync.crash", 0},
                           Mode{"journal.write.crash", 1}}) {
    size_t crashes = 0;
    for (size_t k = 1;; ++k) {
      const std::string wal =
          FreshWal(std::string("sweep.") + mode.failpoint + "." +
                   std::to_string(k) + ".wal");
      const std::string spec =
          std::string(mode.failpoint) + ":" + std::to_string(k);
      int code = ForkAndWait([&] { WorkloadChild(wal, spec); });
      if (code == 43) break;  // k exceeded the number of appends
      ASSERT_EQ(code, 42) << mode.failpoint << " k=" << k;
      ++crashes;
      const size_t prefix = k - mode.durable_at_k_offset;
      int verified = ForkAndWait([&] { VerifyChild(wal, prefix); });
      EXPECT_EQ(verified, 0)
          << mode.failpoint << " k=" << k << " prefix=" << prefix;
    }
    // One crash per op (every op appends exactly one record).
    EXPECT_EQ(crashes, kWorkloadOps) << mode.failpoint;
  }
}

TEST(DurabilityTest, KillInsideCheckpointRecoversTheMaterializedState) {
  // Both checkpoint crash windows — torn tmp before the rename, and the
  // gap between the rename and the journal reset — must recover to the
  // state as of the first Materialize (op 4): once from the old
  // checkpointless journal, once from the new checkpoint with the stale
  // epoch-behind records discarded.
  for (const char* failpoint :
       {"journal.checkpoint.crash", "journal.reset.crash"}) {
    const std::string wal = FreshWal(std::string("ckpt.") + failpoint + ".wal");
    int code = ForkAndWait(
        [&] { WorkloadChild(wal, std::string(failpoint) + ":1"); });
    ASSERT_EQ(code, 42) << failpoint;
    int verified =
        ForkAndWait([&] { VerifyChild(wal, kFirstMaterializeOp); });
    EXPECT_EQ(verified, 0) << failpoint;
  }
}

TEST(DurabilityTest, CleanCloseReopensIdenticalAndUsable) {
  const std::string wal = FreshWal("clean.wal");
  uint64_t base_fp = 0;
  uint64_t closure_fp = 0;
  size_t tc_count = 0;
  std::string rules;
  {
    auto engine = Engine::Open(JournaledOptions(wal));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const OpFn& op : Workload()) ASSERT_TRUE(op(**engine).ok());
    base_fp = chase::FactFingerprint((*engine)->base());
    rules = (*engine)->program().ToString();
    auto closure = (*engine)->CurrentSnapshot();
    ASSERT_TRUE(closure.ok());
    closure_fp = chase::FactFingerprint((*closure)->instance);
    auto tc = (*engine)->Answers("tc");
    ASSERT_TRUE(tc.ok());
    tc_count = tc->size();
  }
  auto reopened = Engine::Open(JournaledOptions(wal));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(chase::FactFingerprint((*reopened)->base()), base_fp);
  // The checkpoint's rules text, rendered from the program, reattaches
  // the same rules in the same order.
  EXPECT_EQ((*reopened)->program().ToString(), rules);
  auto closure = (*reopened)->CurrentSnapshot();
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(chase::FactFingerprint((*closure)->instance), closure_fp);
  // The reopened session is live, not a read-only restore.
  auto tc = (*reopened)->Answers("tc");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->size(), tc_count);
  ASSERT_TRUE((*reopened)->AddTriple("f", "edge", "g").ok());
  auto grown = (*reopened)->Answers("tc");
  ASSERT_TRUE(grown.ok());
  EXPECT_GT(grown->size(), tc_count);
  EngineStats stats = (*reopened)->stats();
  EXPECT_TRUE(stats.journal_enabled);
  // The first session's CurrentSnapshot() materialized and checkpointed,
  // so recovery came from the checkpoint with an empty tail; the
  // AddTriple journals into the new epoch.
  EXPECT_GE(stats.journal_records, 1u);
}

TEST(DurabilityTest, JournaledLoadFactsReopensIdentical) {
  // A fact dump carrying nulls, written on its own dictionary. The
  // first pass loads it into an empty session, the second after a
  // Turtle load. Either way the dump decodes over a private dictionary,
  // so it is appended and journaled as a foreign blob (flag "0").
  for (bool after_prior_load : {false, true}) {
    const std::string dump = ::testing::TempDir() + "/journaled.facts";
    {
      auto dict = std::make_shared<Dictionary>();
      chase::Instance db(dict);
      db.AddFact("p", {"m1"});
      db.AddFact("p", {"m2"});
      auto program =
          datalog::ParseProgram("p(?X) -> exists ?Y anon(?X, ?Y) .\n", dict);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      ASSERT_TRUE(RunChase(*program, &db).ok());
      ASSERT_TRUE(chase::SaveFacts(db, dump).ok());
    }
    const std::string wal = FreshWal("load_facts.wal");
    uint64_t base_fp = 0;
    {
      auto engine = Engine::Open(JournaledOptions(wal));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      if (after_prior_load) {
        ASSERT_TRUE((*engine)->LoadTurtle("a edge b .\n").ok());
      }
      ASSERT_TRUE((*engine)->LoadFacts(dump).ok());
      EXPECT_EQ((*engine)->base().TotalFacts(), after_prior_load ? 5u : 4u);
      base_fp = chase::FactFingerprint((*engine)->base());
    }
    // The journal holds the load's content, not a reference to the file.
    std::remove(dump.c_str());
    auto reopened = Engine::Open(JournaledOptions(wal));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(chase::FactFingerprint((*reopened)->base()), base_fp)
        << (after_prior_load ? "after a Turtle load" : "into an empty session");
  }
}

TEST(DurabilityTest, MidChaseAbortPublishesNothing) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle("a edge b .\nb edge c .\n").ok());
  ASSERT_TRUE(engine.AttachRules(kTcRules).ok());
  ASSERT_TRUE(engine.Materialize().ok());
  auto before = engine.Answers("tc");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 3u);

  ASSERT_TRUE(engine.AddTriple("c", "edge", "d").ok());
  ASSERT_TRUE(FailpointsConfigure("chase.round.abort:1"));
  auto aborted = engine.Materialize();
  ASSERT_TRUE(FailpointsConfigure(""));
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kInternal);

  // Nothing was published: the session still reports dirty, and the
  // next (un-sabotaged) read serves the complete new closure — never a
  // half-chased one.
  EXPECT_FALSE(engine.IsMaterialized());
  auto after = engine.Answers("tc");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 6u);
  EXPECT_TRUE(engine.IsMaterialized());
}

TEST(DurabilityTest, CrashedMidChaseRecoveryReplaysToTheFullClosure) {
  // A chase abort in a JOURNALED session: the journal already holds the
  // kMaterialize-triggering ops, so a recovery re-runs the chase and
  // lands on the closure the crashed process never published.
  const std::string wal = FreshWal("midchase.wal");
  int code = ForkAndWait([&] {
    if (!FailpointsConfigure("chase.round.abort:1")) std::_Exit(90);
    auto engine = Engine::Open(JournaledOptions(wal));
    if (!engine.ok()) std::_Exit(91);
    if (!(*engine)->LoadTurtle("a edge b .\nb edge c .\n").ok()) {
      std::_Exit(92);
    }
    if (!(*engine)->AttachRules(kTcRules).ok()) std::_Exit(92);
    auto aborted = (*engine)->Materialize();
    if (aborted.ok()) std::_Exit(93);
    std::_Exit(42);  // "crash" with the journal holding ops 1..2
  });
  ASSERT_EQ(code, 42);
  auto recovered = Engine::Open(JournaledOptions(wal));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto tc = (*recovered)->Answers("tc");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->size(), 3u);
}

/// The hand-built rule triple(?X, in, <city>) -> hit(?X) over `dict`:
/// `city` is interned as a constant, whatever its text.
datalog::Program CityRule(const std::shared_ptr<Dictionary>& dict,
                          const std::string& city) {
  using datalog::Term;
  auto constant = [&](const std::string& text) {
    return Term::Constant(dict->Intern(text));
  };
  const Term x = Term::Variable(dict->Intern("?X"));
  datalog::Rule rule;
  rule.body.push_back(
      {dict->Intern("triple"), {x, constant("in"), constant(city)}});
  rule.head.push_back({dict->Intern("hit"), {x}});
  datalog::Program program(dict);
  EXPECT_TRUE(program.AddRule(std::move(rule)).ok());
  return program;
}

TEST(DurabilityTest, JournaledAttachRefusesRulesItsJournalCannotReplay) {
  // "New York" renders as two tokens and "?city" as a variable, so the
  // journaled text would fail to reopen or answer differently: a
  // journaled session refuses both, and journals nothing.
  const std::string wal = FreshWal("unreplayable.wal");
  {
    auto engine = Engine::Open(JournaledOptions(wal));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->AddTriple("bob", "in", "Paris").ok());
    for (const char* city : {"New York", "?city"}) {
      ASSERT_TRUE((*engine)->AddTriple("alice", "in", city).ok());
      const size_t records = (*engine)->stats().journal_records;
      Status status =
          (*engine)->AttachProgram(CityRule((*engine)->dict_ptr(), city));
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << city;
      EXPECT_EQ((*engine)->stats().journal_records, records) << city;
      EXPECT_EQ((*engine)->program().size(), 0u) << city;
    }
  }
  auto reopened = Engine::Open(JournaledOptions(wal));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->program().size(), 0u);
}

TEST(DurabilityTest, JournaledHandBuiltProgramReopensIdentical) {
  const std::string wal = FreshWal("hand_built.wal");
  uint64_t closure_fp = 0;
  {
    auto engine = Engine::Open(JournaledOptions(wal));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->AddTriple("alice", "in", "Paris").ok());
    ASSERT_TRUE((*engine)->AddTriple("bob", "in", "Rome").ok());
    ASSERT_TRUE(
        (*engine)->AttachProgram(CityRule((*engine)->dict_ptr(), "Paris"))
            .ok());
    auto hits = (*engine)->Answers("hit");
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_EQ(hits->size(), 1u);
    auto closure = (*engine)->CurrentSnapshot();
    ASSERT_TRUE(closure.ok());
    closure_fp = chase::FactFingerprint((*closure)->instance);
  }
  auto reopened = Engine::Open(JournaledOptions(wal));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto closure = (*reopened)->CurrentSnapshot();
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(chase::FactFingerprint((*closure)->instance), closure_fp);
}

TEST(DurabilityTest, JournaledLoadOfAnUnreadablePathJournalsNothing) {
  // A directory opens but cannot be read. The journaled load reads the
  // whole file to journal its content, and must fail as the streaming
  // load does rather than journal and load an empty text.
  const std::string wal = FreshWal("unreadable.wal");
  auto engine = Engine::Open(JournaledOptions(wal));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const uint64_t records = (*engine)->stats().journal_records;
  Status status = (*engine)->LoadTurtleFile(::testing::TempDir());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ((*engine)->stats().journal_records, records);
}

TEST(DurabilityTest, JournalPathOnATurtleFileIsRefusedUntouched) {
  // A journal path that names a data file by mistake (say, `triq_server
  // --journal data.ttl`) must not be taken for a torn journal and wiped.
  const std::string path = FreshWal("data.ttl");
  const std::string turtle =
      "alice knows bob .\nbob knows carol .\ncarol knows dave .\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << turtle;
  }
  auto opened = Engine::Open(JournaledOptions(path));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().message().find(path), std::string::npos)
      << opened.status().ToString();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), turtle);
}

}  // namespace
}  // namespace triq
