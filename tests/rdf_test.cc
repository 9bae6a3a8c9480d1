#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "rdf/vocabulary.h"

namespace triq::rdf {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

TEST(GraphTest, AddAndContains) {
  Graph g(Dict());
  EXPECT_TRUE(g.Add("a", "p", "b"));
  EXPECT_FALSE(g.Add("a", "p", "b"));  // duplicate
  EXPECT_EQ(g.size(), 1u);
  SymbolId a = g.dict().Find("a");
  SymbolId p = g.dict().Find("p");
  SymbolId b = g.dict().Find("b");
  EXPECT_TRUE(g.Contains(Triple{a, p, b}));
  EXPECT_FALSE(g.Contains(Triple{b, p, a}));
}

TEST(GraphTest, MatchBySubject) {
  Graph g(Dict());
  g.Add("a", "p", "b");
  g.Add("a", "q", "c");
  g.Add("b", "p", "c");
  SymbolId a = g.dict().Find("a");
  int count = 0;
  g.Match(a, std::nullopt, std::nullopt, [&](const Triple&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(GraphTest, MatchByPredicateAndObject) {
  Graph g(Dict());
  g.Add("a", "p", "c");
  g.Add("b", "p", "c");
  g.Add("b", "q", "c");
  SymbolId p = g.dict().Find("p");
  SymbolId c = g.dict().Find("c");
  int count = 0;
  g.Match(std::nullopt, p, c, [&](const Triple&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(GraphTest, MatchAllWildcards) {
  Graph g(Dict());
  g.Add("a", "p", "b");
  g.Add("b", "p", "c");
  int count = 0;
  g.Match(std::nullopt, std::nullopt, std::nullopt,
          [&](const Triple&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(GraphTest, MatchUnknownSymbolIsEmpty) {
  Graph g(Dict());
  g.Add("a", "p", "b");
  SymbolId z = g.dict().Intern("zzz");
  int count = 0;
  g.Match(z, std::nullopt, std::nullopt, [&](const Triple&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(GraphTest, ActiveDomainCollectsAllPositions) {
  Graph g(Dict());
  g.Add("a", "p", "b");
  g.Add("b", "q", "a");
  EXPECT_EQ(g.ActiveDomain().size(), 4u);  // a, b, p, q
}

TEST(TurtleTest, ParsesSimpleStatements) {
  Graph g(Dict());
  ASSERT_TRUE(ParseTurtle(R"(
    dbUllman is_author_of "The Complete Book" .
    dbUllman name "Jeffrey Ullman" .  # comment
  )",
                          &g)
                  .ok());
  EXPECT_EQ(g.size(), 2u);
  SymbolId lit = g.dict().Find("\"The Complete Book\"");
  EXPECT_NE(lit, kInvalidSymbol);
}

TEST(TurtleTest, RoundTripsThroughWriter) {
  Graph g(Dict());
  ASSERT_TRUE(ParseTurtle("a p b .\nb q c .", &g).ok());
  std::string text = WriteTurtle(g);
  Graph g2(Dict());
  ASSERT_TRUE(ParseTurtle(text, &g2).ok());
  EXPECT_EQ(g2.size(), g.size());
}

TEST(TurtleTest, RejectsWrongArity) {
  Graph g(Dict());
  EXPECT_FALSE(ParseTurtle("a p .", &g).ok());
  EXPECT_FALSE(ParseTurtle("a p b c .", &g).ok());
}

TEST(TurtleTest, RejectsUnterminatedString) {
  Graph g(Dict());
  EXPECT_FALSE(ParseTurtle("a p \"oops .", &g).ok());
}

TEST(TurtleTest, QuotedDotDoesNotSplit) {
  Graph g(Dict());
  ASSERT_TRUE(ParseTurtle("a p \"J. R. R. Tolkien\" .", &g).ok());
  EXPECT_EQ(g.size(), 1u);
}

TEST(TurtleStreamTest, RoundTripsThroughWriter) {
  Graph g(Dict());
  for (int i = 0; i < 200; ++i) {
    g.Add("s" + std::to_string(i), "p" + std::to_string(i % 7),
          "o" + std::to_string((i * 3) % 11));
  }
  std::istringstream in(WriteTurtle(g));
  Graph parsed(Dict());
  ASSERT_TRUE(ParseTurtleStream(in, &parsed).ok());
  ASSERT_EQ(parsed.size(), g.size());
  // Same triples, same order (WriteTurtle emits insertion order).
  EXPECT_EQ(WriteTurtle(parsed), WriteTurtle(g));
}

TEST(TurtleStreamTest, MultiLineLiteralWithHashRoundTripsThroughWriter) {
  // A literal that spans a line break keeps a '#' on its later line: the
  // comment scan resumes in the literal, not outside it.
  Graph g(Dict());
  g.Add("a", "p", "\"x\ny # z\"");
  const std::string text = WriteTurtle(g);
  EXPECT_EQ(text, "a p \"x\ny # z\" .\n");
  Graph from_string(Dict());
  ASSERT_TRUE(ParseTurtle(text, &from_string).ok());
  EXPECT_EQ(WriteTurtle(from_string), text);
  std::istringstream in(text);
  Graph from_stream(Dict());
  ASSERT_TRUE(ParseTurtleStream(in, &from_stream).ok());
  EXPECT_EQ(WriteTurtle(from_stream), text);
}

TEST(TurtleStreamTest, AgreesWithStringParserOnTrickyInput) {
  constexpr std::string_view kText = R"(# leading comment
    a p b . b q c .
    c r "two words" .   # trailing comment
    d s "J. R. R. Tolkien" .
    e t
    f .
  )";
  Graph from_string(Dict());
  ASSERT_TRUE(ParseTurtle(kText, &from_string).ok());
  std::istringstream in{std::string(kText)};
  Graph from_stream(Dict());
  ASSERT_TRUE(ParseTurtleStream(in, &from_stream).ok());
  EXPECT_EQ(from_stream.size(), from_string.size());
  EXPECT_EQ(WriteTurtle(from_stream), WriteTurtle(from_string));
}

TEST(TurtleStreamTest, StatementsSpanChunksAndLines) {
  // Statements split across lines arrive through separate FeedLine
  // calls; the splitter must buffer the tail until the '.' shows up.
  std::istringstream in("a\np\nb\n.\nc q d .");
  Graph g(Dict());
  ASSERT_TRUE(ParseTurtleStream(in, &g).ok());
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(WriteTurtle(g), "a p b .\nc q d .\n");
}

TEST(TurtleStreamTest, SurfacesErrorsWithLineNumbers) {
  std::istringstream wrong_arity("a p b .\nc q .\n");
  Graph g(Dict());
  Status status = ParseTurtleStream(wrong_arity, &g);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("line 2"), std::string::npos)
      << status.ToString();
  std::istringstream unterminated("a p \"oops .\n");
  Graph g2(Dict());
  EXPECT_FALSE(ParseTurtleStream(unterminated, &g2).ok());
}

TEST(TurtleStreamTest, EndOfInputErrorsNameTheLastLineRead) {
  // With or without a final newline, a one-line input fails at line 1,
  // from a string and from a stream alike.
  for (std::string_view text : {"a p", "a p\n", "a \"p", "a \"p\n"}) {
    SCOPED_TRACE(std::string(text));
    Graph from_string(Dict());
    Status status = ParseTurtle(text, &from_string);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("line 1"), std::string::npos)
        << status.ToString();
    std::istringstream in{std::string(text)};
    Graph from_stream(Dict());
    EXPECT_EQ(ParseTurtleStream(in, &from_stream).ToString(),
              status.ToString());
  }
}

TEST(VocabularyTest, InternsAllTerms) {
  auto dict = Dict();
  Vocabulary v(*dict);
  EXPECT_EQ(dict->Text(v.rdf_type), "rdf:type");
  EXPECT_EQ(dict->Text(v.owl_same_as), "owl:sameAs");
  EXPECT_EQ(dict->Text(v.owl_some_values_from), "owl:someValuesFrom");
  EXPECT_NE(v.owl_class, v.owl_object_property);
}

}  // namespace
}  // namespace triq::rdf
