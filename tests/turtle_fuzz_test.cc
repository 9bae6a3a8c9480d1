// Deterministic mutation fuzzing for the Turtle parser's two sinks: the
// rdf::Graph sink (ParseTurtle + Instance::FromGraph) and the relation
// sink (Instance::FromTurtle, which stages the parser's string_view
// tokens straight into the `triple` relation), each fed from a string
// and from a stream. Seeded byte flips, truncations, and inserted '"',
// '.', '#' and newlines of a seed corpus must be accepted or rejected
// alike by all four, with the same error, and an accepted input must
// give byte-identical fact dumps (dictionary ids, tuple order, null
// ids). Run under ASan/UBSan in CI, this is also the harness that shows
// no sink reads a token view after the parser's buffer moved on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chase/fact_dump.h"
#include "chase/instance.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"

namespace triq {
namespace {

using chase::Instance;

// The one seed every parse must reject, with the same error: a
// statement cut short by the end of the input.
constexpr std::string_view kTruncatedSeed = "a p\n";

std::vector<std::string> SeedCorpus() {
  std::vector<std::string> corpus = {
      "a p b .\na p b .\nb p c .",
      "_:n1 p _:n2 .\n_:n2 q _:n1 .\n_:n2147483648 p _:n1073741823 .",
      "a label \"two words\" .\nb label \"J. R. R. Tolkien\" .\n"
      "c label \"not # a comment\" .",
      "# leading comment\na\np\nb .  # trailing\nc q\n  d . e r f .\n",
      "a p b .\r\nb p c .\r\nd p e",
      "a p \"x\r\ny\" .\r\n",
      // A literal across a line break: a '#' on its later line is text,
      // and a quote in a comment after such a literal starts none.
      "a p \"x\ny # z\" .",
      "a p \"x\ny\" . # c \"q\nb p o .",
      std::string(kTruncatedSeed),
      "",
  };
  // Past the parser's 4 KiB buffer-compaction threshold, so mutations
  // also land in statements whose tokens sit behind a compaction.
  std::string large;
  for (int i = 0; i < 300; ++i) {
    const std::string n = std::to_string(i);
    large += "s" + n + " p _:n" + std::to_string(i % 13) + " .";
    large += i % 5 == 0 ? "  # note " + n + "\n" : "\n";
    large += "s" + n + " label \"item " + n + ". #" + n + "\" .\n";
  }
  corpus.push_back(large);
  return corpus;
}

std::string Mutate(std::string text, std::mt19937* rng) {
  static constexpr char kInserts[] = {'"', '.', '#', '\n'};
  const int mutations = 1 + static_cast<int>((*rng)() % 3);
  for (int m = 0; m < mutations; ++m) {
    const size_t at = text.empty() ? 0 : (*rng)() % (text.size() + 1);
    switch ((*rng)() % 3) {
      case 0:  // flip one bit of one byte
        if (!text.empty()) {
          const size_t byte = at % text.size();
          text[byte] = static_cast<char>(text[byte] ^ (1u << ((*rng)() % 8)));
        }
        break;
      case 1:  // truncate
        text.resize(at);
        break;
      default:  // insert a structural character
        text.insert(at, 1, kInserts[(*rng)() % 4]);
        break;
    }
  }
  return text;
}

std::string Dump(const Instance& db) {
  std::string bytes;
  EXPECT_TRUE(chase::SaveFactsToString(db, &bytes).ok());
  return bytes;
}

/// Parses `text` through both sinks, from a string and from a stream,
/// and checks all four agree. Returns whether the string parse accepted
/// it.
bool ExpectSinksAgree(const std::string& text) {
  rdf::Graph graph(std::make_shared<Dictionary>());
  const Status graph_status = rdf::ParseTurtle(text, &graph);
  auto staged = Instance::FromTurtle(text, std::make_shared<Dictionary>());
  EXPECT_EQ(graph_status.ok(), staged.ok()) << text;
  if (graph_status.ok() && staged.ok()) {
    EXPECT_EQ(Dump(*staged), Dump(Instance::FromGraph(graph))) << text;
  } else if (!graph_status.ok() && !staged.ok()) {
    EXPECT_EQ(staged.status().ToString(), graph_status.ToString());
  }

  std::istringstream graph_in(text);
  rdf::Graph stream_graph(std::make_shared<Dictionary>());
  const Status stream_status = rdf::ParseTurtleStream(graph_in, &stream_graph);
  std::istringstream staged_in(text);
  auto stream_staged =
      Instance::FromTurtle(staged_in, std::make_shared<Dictionary>());
  EXPECT_EQ(stream_status.ok(), stream_staged.ok()) << text;
  if (stream_status.ok() && stream_staged.ok()) {
    EXPECT_EQ(Dump(*stream_staged), Dump(Instance::FromGraph(stream_graph)))
        << text;
  } else if (!stream_status.ok() && !stream_staged.ok()) {
    EXPECT_EQ(stream_staged.status().ToString(), stream_status.ToString());
  }

  // The string parse and the stream parse read the same lines.
  EXPECT_EQ(stream_status.ToString(), graph_status.ToString()) << text;
  EXPECT_EQ(stream_staged.status().ToString(), staged.status().ToString())
      << text;
  if (staged.ok() && stream_staged.ok()) {
    EXPECT_EQ(Dump(*stream_staged), Dump(*staged)) << text;
  }
  return graph_status.ok();
}

TEST(TurtleFuzzTest, SeedCorpusParsesAlikeThroughBothSinks) {
  for (const std::string& seed : SeedCorpus()) {
    EXPECT_EQ(ExpectSinksAgree(seed), seed != kTruncatedSeed) << seed;
  }
}

TEST(TurtleFuzzTest, MutatedInputsParseAlikeThroughBothSinks) {
  // Fixed seed: every run fuzzes the same inputs, so a failure here
  // reproduces byte for byte.
  std::mt19937 rng(0x7A27u);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const std::string& seed : SeedCorpus()) {
    for (int i = 0; i < 120; ++i) {
      (ExpectSinksAgree(Mutate(seed, &rng)) ? accepted : rejected) += 1;
    }
  }
  // The mutations reach both outcomes, so both comparisons ran.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(rejected, 50u);
}

}  // namespace
}  // namespace triq
