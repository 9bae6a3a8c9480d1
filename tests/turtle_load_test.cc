// Turtle loads stage straight into the `triple` relation
// (chase::Instance::FromTurtle / chase::TripleStager). These tests pin
// that the staged path stores exactly what the rdf::Graph path stores —
// rdf::ParseTurtle + Instance::FromGraph + Engine::LoadDatabase — down
// to tuple order, null ids and depths, and dictionary ids:
//  * for Engine::LoadTurtle, LoadTurtleFile and AddTriple, into an empty
//    session (which adopts the staged instance) and into a non-empty one
//    (which appends it);
//  * for the fact dumps tools/turtle_to_facts and bench_all's cache
//    write, byte for byte;
//  * LoadTurtle and LoadTurtleFile store the same base for every
//    fixture, CRLF line breaks included;
//  * a malformed statement after good ones changes nothing: not the
//    base, not the answers, not the journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chase/fact_dump.h"
#include "chase/instance.h"
#include "engine/engine.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"

namespace triq {
namespace {

using chase::Instance;

struct Fixture {
  std::string_view name;
  std::string_view text;
};

// `_:n2147483648` is above the 30-bit null payload, so it stays a
// constant; `_:n1073741823` is the largest id that becomes a null.
constexpr Fixture kFixtures[] = {
    {"duplicates", "a p b .\na p b .\nb p c .\na p b .\nb p c ."},
    {"shared_blank_nodes",
     "_:n1 p _:n2 .\n_:n2 q _:n1 .\n_:n7 p _:n1 .\n"
     "_:n2147483648 p x .\n_:n1073741823 p _:n2147483648 .\n"
     "_:n p _:nx .\n"},
    {"quoted_literals",
     "a label \"two words\" .\nb label \"J. R. R. Tolkien\" .\n"
     "c label \"not # a comment\" .\nd label \"dots . and # both\" ."},
    {"comments_and_multiline",
     "# leading comment\na\np\nb .  # trailing comment\n"
     "c q   # inside a statement\n  d .\ne r f . g s h .\n"},
    {"crlf_and_final_without_dot",
     "a p b .\r\nb p c .\r\nc p \"d\" .\r\nd p e"},
    {"empty", ""},
    {"comment_only", "# nothing here\n   # nor here\n"},
    {"literal_across_crlf", "a p \"x\r\ny\" .\r\nb p \"\r\n\" .\r\n"},
    {"hash_in_multiline_literal",
     "a p \"x\ny # z\" .\na p \"x\ny\" . # c \"q\nb p o .\n"},
};

// Facts the non-empty sessions start with: a null, and symbols and
// triples that the fixtures repeat.
constexpr std::string_view kPrefix = "a p b .\n_:n4 p z .\nz label \"x\" .\n";
// The same without the null: a base with facts but no nulls.
constexpr std::string_view kConstantPrefix = "a p b .\nz label \"x\" .\n";

/// Hashes the storage itself: every relation in predicate-id order, each
/// tuple in tuple-index order by raw term bits, every null's depth, and
/// every dictionary symbol by id.
uint64_t StorageHash(const Instance& db) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  std::vector<datalog::PredicateId> preds;
  for (const auto& [pred, rel] : db.relations()) preds.push_back(pred);
  std::sort(preds.begin(), preds.end());
  for (datalog::PredicateId pred : preds) {
    const chase::Relation* rel = db.Find(pred);
    mix(pred);
    mix(rel->arity());
    mix(rel->size());
    for (chase::TupleView tuple : rel->tuples()) {
      for (chase::Term t : tuple) mix(t.raw());
    }
  }
  mix(db.null_count());
  for (uint32_t i = 0; i < db.null_count(); ++i) {
    mix(db.NullDepth(chase::Term::Null(i)));
  }
  const Dictionary& dict = db.dict();
  mix(dict.size());
  for (SymbolId id = 1; id <= dict.size(); ++id) {
    for (char c : dict.Text(id)) mix(static_cast<unsigned char>(c));
    mix(0x100);  // symbol separator
  }
  return h;
}

std::vector<std::array<std::string, 3>> Statements(std::string_view text) {
  std::vector<std::array<std::string, 3>> out;
  Status status = rdf::ParseTurtle(
      text, [&out](std::string_view s, std::string_view p,
                   std::string_view o) {
        out.push_back({std::string(s), std::string(p), std::string(o)});
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

std::set<std::string> Lines(const std::string& text) {
  std::set<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.insert(line);
  return out;
}

std::string WriteTempFile(std::string_view name, std::string_view text) {
  const std::string path = ::testing::TempDir() + "/" + std::string(name);
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

/// The Graph path: parse into an rdf::Graph over the engine dictionary,
/// convert it with FromGraph, and hand it to LoadDatabase.
Status GraphPathLoad(Engine* engine, std::string_view text) {
  rdf::Graph graph(engine->dict_ptr());
  TRIQ_RETURN_IF_ERROR(rdf::ParseTurtle(text, &graph));
  return engine->LoadDatabase(Instance::FromGraph(graph));
}

/// One staged loader and the Graph-path calls it must match.
struct Loader {
  std::string_view name;
  std::function<Status(Engine*, std::string_view)> staged;
  std::function<Status(Engine*, std::string_view)> graph_path;
};

std::vector<Loader> Loaders() {
  return {
      {"LoadTurtle",
       [](Engine* e, std::string_view text) { return e->LoadTurtle(text); },
       GraphPathLoad},
      {"LoadTurtleFile",
       [](Engine* e, std::string_view text) {
         return e->LoadTurtleFile(WriteTempFile("turtle_load.ttl", text));
       },
       [](Engine* e, std::string_view text) {
         std::istringstream in{std::string(text)};
         rdf::Graph graph(e->dict_ptr());
         TRIQ_RETURN_IF_ERROR(rdf::ParseTurtleStream(in, &graph));
         return e->LoadDatabase(Instance::FromGraph(graph));
       }},
      {"AddTriple",
       [](Engine* e, std::string_view text) {
         for (const auto& [s, p, o] : Statements(text)) {
           TRIQ_RETURN_IF_ERROR(e->AddTriple(s, p, o));
         }
         return Status::OK();
       },
       [](Engine* e, std::string_view text) {
         for (const auto& [s, p, o] : Statements(text)) {
           rdf::Graph graph(e->dict_ptr());
           graph.Add(s, p, o);
           TRIQ_RETURN_IF_ERROR(e->LoadDatabase(Instance::FromGraph(graph)));
         }
         return Status::OK();
       }},
  };
}

TEST(TurtleLoadTest, StagedLoadsStoreExactlyWhatTheGraphPathStores) {
  for (const Loader& loader : Loaders()) {
    for (const Fixture& fixture : kFixtures) {
      // An empty prefix leaves the session empty: the adopt branch.
      for (std::string_view prefix : {std::string_view(), kPrefix,
                                      kConstantPrefix}) {
        SCOPED_TRACE(std::string(loader.name) + " / " +
                     std::string(fixture.name) + " after [" +
                     std::string(prefix) + "]");
        Engine staged;
        Engine reference;
        if (!prefix.empty()) {
          ASSERT_TRUE(GraphPathLoad(&staged, prefix).ok());
          ASSERT_TRUE(GraphPathLoad(&reference, prefix).ok());
        }
        const std::set<std::string> before = Lines(staged.base().ToString());
        ASSERT_TRUE(loader.staged(&staged, fixture.text).ok());
        ASSERT_TRUE(loader.graph_path(&reference, fixture.text).ok());
        EXPECT_EQ(StorageHash(staged.base()), StorageHash(reference.base()));
        const std::set<std::string> after = Lines(staged.base().ToString());
        EXPECT_EQ(after, Lines(reference.base().ToString()));
        // A load only adds: every fact of the prefix is still there.
        EXPECT_TRUE(std::includes(after.begin(), after.end(), before.begin(),
                                  before.end()));
        if (prefix.empty() && Statements(fixture.text).empty()) {
          // No statement, no relation: the base stays as it was.
          EXPECT_TRUE(staged.base().relations().empty());
        }
      }
    }
  }
}

TEST(TurtleLoadTest, TextAndFileLoadsStoreTheSameBase) {
  for (const Fixture& fixture : kFixtures) {
    SCOPED_TRACE(std::string(fixture.name));
    Engine from_text;
    Engine from_file;
    ASSERT_TRUE(from_text.LoadTurtle(fixture.text).ok());
    ASSERT_TRUE(from_file
                    .LoadTurtleFile(
                        WriteTempFile("turtle_text_vs_file.ttl", fixture.text))
                    .ok());
    EXPECT_EQ(StorageHash(from_text.base()), StorageHash(from_file.base()));
    EXPECT_EQ(Lines(from_text.base().ToString()),
              Lines(from_file.base().ToString()));
  }
}

TEST(TurtleLoadTest, BlankNodesBecomeNullsOnlyWithinThePayload) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(kFixtures[1].text).ok());
  const Instance& base = engine.base();
  // _:n1, _:n2, _:n7 and _:n1073741823; the rest are constants.
  EXPECT_EQ(base.null_count(), 4u);
  EXPECT_NE(engine.dict().Find("_:n2147483648"), kInvalidSymbol);
  const chase::Relation* triples = base.Find("triple");
  ASSERT_NE(triples, nullptr);
  EXPECT_EQ(triples->size(), 6u);
  // One blank node shared by two statements is one null.
  EXPECT_EQ(triples->tuple(0)[0], triples->tuple(1)[2]);
  EXPECT_TRUE(triples->tuple(0)[0].IsNull());
}

TEST(TurtleLoadTest, StagingInternsThePredicateLastAndKeepsFirstOccurrence) {
  // Instance::FromGraph stages through the same TripleStager, so the
  // order it always had is pinned here directly: terms in statement
  // order, then the predicate name; tuples and nulls in first-occurrence
  // order, a repeated statement dropped.
  auto dict = std::make_shared<Dictionary>();
  auto staged = Instance::FromTurtle(
      "b p _:n9 .\n_:n3 p b .\nb p _:n9 .\n_:n9 q _:n3 .", dict);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  const std::vector<std::string_view> order = {"b", "p", "_:n9", "_:n3", "q",
                                               "triple"};
  ASSERT_EQ(dict->size(), order.size());
  for (SymbolId id = 1; id <= order.size(); ++id) {
    EXPECT_EQ(dict->Text(id), order[id - 1]);
  }
  const chase::Term b = chase::Term::Constant(dict->Find("b"));
  const chase::Term p = chase::Term::Constant(dict->Find("p"));
  const chase::Term q = chase::Term::Constant(dict->Find("q"));
  const chase::Term n9 = chase::Term::Null(0);
  const chase::Term n3 = chase::Term::Null(1);
  const chase::Relation* triples = staged->Find("triple");
  ASSERT_NE(triples, nullptr);
  ASSERT_EQ(triples->size(), 3u);
  EXPECT_EQ(triples->tuple(0).ToTuple(), (chase::Tuple{b, p, n9}));
  EXPECT_EQ(triples->tuple(1).ToTuple(), (chase::Tuple{n3, p, b}));
  EXPECT_EQ(triples->tuple(2).ToTuple(), (chase::Tuple{n9, q, n3}));
  EXPECT_EQ(staged->null_count(), 2u);
  EXPECT_EQ(staged->NullDepth(n3), 0u);
}

TEST(TurtleLoadTest, FactDumpsMatchTheGraphPathByteForByte) {
  // tools/turtle_to_facts and bench_all's tc_chains cache write stage
  // through Instance::FromTurtle; dumps written before that (through
  // ParseTurtleStream + FromGraph) must stay valid caches.
  std::string text;
  for (const Fixture& fixture : kFixtures) {
    text += std::string(fixture.text) + " .\n";
  }
  for (std::string_view predicate : {"triple", "edge"}) {
    SCOPED_TRACE(std::string(predicate));
    std::istringstream staged_in(text);
    auto staged = Instance::FromTurtle(
        staged_in, std::make_shared<Dictionary>(), predicate);
    ASSERT_TRUE(staged.ok()) << staged.status().ToString();

    std::istringstream graph_in(text);
    rdf::Graph graph(std::make_shared<Dictionary>());
    ASSERT_TRUE(rdf::ParseTurtleStream(graph_in, &graph).ok());
    Instance from_graph = Instance::FromGraph(graph, predicate);

    std::string staged_bytes, graph_bytes;
    ASSERT_TRUE(chase::SaveFactsToString(*staged, &staged_bytes).ok());
    ASSERT_TRUE(chase::SaveFactsToString(from_graph, &graph_bytes).ok());
    EXPECT_EQ(staged_bytes, graph_bytes);
    EXPECT_EQ(StorageHash(*staged), StorageHash(from_graph));
  }
}

std::vector<chase::Tuple> SortedAnswers(Engine* engine) {
  auto answers = engine->Answers("triple");
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  if (!answers.ok()) return {};
  std::sort(answers->begin(), answers->end());
  return *answers;
}

void RemoveJournal(const std::string& wal) {
  for (const char* suffix : {"", ".ckpt.tmp"}) {
    std::remove((wal + suffix).c_str());
  }
}

TEST(TurtleLoadTest, MalformedStatementAfterGoodOnesChangesNothing) {
  std::string good = "_:n1 p s0 .\n";
  for (int i = 0; i < 50; ++i) {
    good += "s" + std::to_string(i) + " p o" + std::to_string(i % 7) + " .\n";
  }
  const std::string malformed[] = {good + "a b c d .\nz p q .\n",
                                   good + "a b \"unterminated .\n"};
  for (bool prefilled : {false, true}) {
    for (const std::string& text : malformed) {
      SCOPED_TRACE(prefilled ? "append" : "adopt");
      const std::string wal = ::testing::TempDir() + "/turtle_load.wal";
      RemoveJournal(wal);
      auto opened = Engine::Open(EngineOptions().SetJournalPath(wal));
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      Engine& engine = **opened;
      std::vector<chase::Tuple> answers_before;
      if (prefilled) {
        ASSERT_TRUE(engine.LoadTurtle(kPrefix).ok());
        answers_before = SortedAnswers(&engine);
        ASSERT_EQ(answers_before.size(), 2u);  // the null's triple is not
      }
      const uint64_t base_before = chase::FactFingerprint(engine.base());
      const size_t facts_before = engine.base().TotalFacts();
      const uint64_t records_before = engine.stats().journal_records;

      Status status = engine.LoadTurtle(text);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_EQ(chase::FactFingerprint(engine.base()), base_before);
      EXPECT_EQ(engine.base().TotalFacts(), facts_before);
      EXPECT_EQ(engine.stats().journal_records, records_before);
      EXPECT_EQ(engine.IsMaterialized(), prefilled);
      EXPECT_EQ(SortedAnswers(&engine), answers_before);

      // The session still loads: the good statements alone go through.
      ASSERT_TRUE(engine.LoadTurtle(good).ok());
      EXPECT_EQ(engine.base().TotalFacts(), facts_before + 51);
      EXPECT_EQ(SortedAnswers(&engine).size(), answers_before.size() + 50);
      opened->reset();
      RemoveJournal(wal);
    }
  }
}

}  // namespace
}  // namespace triq
