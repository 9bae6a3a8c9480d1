#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/dictionary.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace triq {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  SymbolId a = dict.Intern("hello");
  SymbolId b = dict.Intern("hello");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.Text(a), "hello");
}

TEST(DictionaryTest, DistinctStringsGetDistinctIds) {
  Dictionary dict;
  SymbolId a = dict.Intern("a");
  SymbolId b = dict.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, IdZeroIsReserved) {
  Dictionary dict;
  EXPECT_NE(dict.Intern("x"), kInvalidSymbol);
  EXPECT_EQ(dict.Find("never-interned"), kInvalidSymbol);
}

TEST(DictionaryTest, LookupFindsInterned) {
  Dictionary dict;
  SymbolId a = dict.Intern("rdf:type");
  EXPECT_EQ(dict.Find("rdf:type"), a);
}

TEST(DictionaryTest, ManySymbolsRoundTrip) {
  Dictionary dict;
  std::vector<SymbolId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(dict.Intern("sym" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dict.Text(ids[i]), "sym" + std::to_string(i));
  }
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad rule");
}

TEST(StatusTest, InconsistentIsTheTopAnswer) {
  Status s = Status::Inconsistent("constraint fired");
  EXPECT_EQ(s.code(), StatusCode::kInconsistent);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  abc \t\n"), "abc");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, SplitAndTrim) {
  std::vector<std::string> parts = SplitAndTrim("a, b , ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("some:prop", "some:"));
  EXPECT_FALSE(StartsWith("so", "some:"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, ParseCountAcceptsWholeNumbersUpToMax) {
  uint64_t n = 7;
  EXPECT_TRUE(ParseCount("0", 10, &n));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(ParseCount("1024", 1024, &n));
  EXPECT_EQ(n, 1024u);
  EXPECT_TRUE(ParseCount("18446744073709551615", UINT64_MAX, &n));
  EXPECT_EQ(n, UINT64_MAX);
}

TEST(StringsTest, ParseCountRejectsMalformedAndOverBound) {
  uint64_t n = 7;
  EXPECT_FALSE(ParseCount("2x", 1024, &n));  // trailing garbage
  EXPECT_FALSE(ParseCount("4 ", 1024, &n));
  EXPECT_FALSE(ParseCount(" 4", 1024, &n));
  EXPECT_FALSE(ParseCount("-1", 1024, &n));  // sign
  EXPECT_FALSE(ParseCount("+1", 1024, &n));
  EXPECT_FALSE(ParseCount("", 1024, &n));  // empty
  EXPECT_FALSE(ParseCount("1025", 1024, &n));  // over the bound
  EXPECT_FALSE(ParseCount("1000000000", 1024, &n));
  EXPECT_FALSE(ParseCount("18446744073709551616", UINT64_MAX, &n));
  EXPECT_EQ(n, 7u);  // untouched on failure
}

TEST(StringsTest, ReadFileTellsAnEmptyFileFromAnUnreadablePath) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/read_file_test.txt";
  for (const std::string& content :
       {std::string(), std::string(70000, 'x')}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << content;
    }
    Result<std::string> read = ReadFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, content);
  }
  std::remove(path.c_str());

  Result<std::string> missing = ReadFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(missing.status().message(), "cannot open " + path);
  // A directory opens, but reading it fails: not an empty file.
  Result<std::string> directory = ReadFile(dir);
  ASSERT_FALSE(directory.ok());
  EXPECT_EQ(directory.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(directory.status().message(), "cannot read " + dir);
}

}  // namespace
}  // namespace triq
