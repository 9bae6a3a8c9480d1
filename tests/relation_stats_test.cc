// The planner's statistics layer (relation.cc): sorted permutations stay
// exact when a delta window was sorted first, the HyperLogLog estimate is
// order-independent and within tolerance, LexPerm is the lexicographic
// trie order the leapfrog join assumes, and a relation that stopped
// growing tolerates concurrent first-use index builds and copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "chase/instance.h"
#include "chase/relation.h"

namespace triq {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

/// Checks that `perm` is (col key[0], col key[1], ..., tuple index)
/// lexicographic order over all stored tuples.
void ExpectLexOrder(const chase::Relation& rel,
                    const std::vector<uint32_t>& key,
                    const std::vector<uint32_t>& perm) {
  ASSERT_EQ(perm.size(), rel.size());
  std::vector<uint32_t> expected(rel.size());
  for (uint32_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (uint32_t pos : key) {
                       datalog::Term va = rel.tuple(a)[pos];
                       datalog::Term vb = rel.tuple(b)[pos];
                       if (va.raw() != vb.raw()) return va < vb;
                     }
                     return a < b;
                   });
  EXPECT_EQ(perm, expected);
}

/// The whole sorted permutation of `pos` as a plain vector.
std::vector<uint32_t> SortedIndices(const chase::Relation& rel,
                                    uint32_t pos) {
  chase::SortedRange sorted = rel.Sorted(pos);
  return std::vector<uint32_t>(sorted.begin(), sorted.end());
}

TEST(RelationStatsTest, SortedExactAfterSortWindow) {
  auto dict = Dict();
  chase::Instance db(dict);
  for (int i = 0; i < 64; ++i) {
    // Unique second position: every AddFact stores a new tuple.
    db.AddFact("e", {"a" + std::to_string(i % 9), "b" + std::to_string(i)});
  }
  const chase::Relation* rel = db.Find("e");
  ASSERT_NE(rel, nullptr);
  ExpectLexOrder(*rel, {0}, SortedIndices(*rel, 0));  // syncs the prefix

  // Append a tail and sort exactly the tail window (the semi-naive delta
  // pattern) before SyncSorted extends the permutation over it.
  uint32_t tail_begin = static_cast<uint32_t>(rel->size());
  for (int i = 0; i < 48; ++i) {
    db.AddFact("e", {"c" + std::to_string(i % 7), "b" + std::to_string(i)});
  }
  std::vector<uint32_t> window;
  rel->SortWindow(0, tail_begin, static_cast<uint32_t>(rel->size()),
                  &window);
  EXPECT_EQ(window.size(), 48u);
  ExpectLexOrder(*rel, {0}, SortedIndices(*rel, 0));

  // The full window is a copy of the permutation; a partial window is
  // sorted on its own.
  chase::Relation small(2);
  for (uint32_t i = 0; i < 50; ++i) {
    small.Insert(chase::Tuple{chase::Term::Constant(i % 7),
                              chase::Term::Constant(i)});
  }
  small.SortWindow(0, 0, 50, &window);
  EXPECT_EQ(window.size(), 50u);
  EXPECT_EQ(window, SortedIndices(small, 0));
  small.SortWindow(0, 2, 5, &window);
  EXPECT_EQ(window, (std::vector<uint32_t>{2, 3, 4}));
}

TEST(RelationStatsTest, EstimatedDistinctWithinToleranceAndClamped) {
  auto dict = Dict();
  chase::Instance db(dict);
  // Small cardinality: the linear-counting regime is near exact.
  for (int i = 0; i < 200; ++i) {
    db.AddFact("small", {"v" + std::to_string(i % 12), "w"});
  }
  const chase::Relation* small = db.Find("small");
  ASSERT_NE(small, nullptr);
  EXPECT_GE(small->EstimatedDistinct(0), 6.0);
  EXPECT_LE(small->EstimatedDistinct(0), 24.0);
  // A constant column estimates ~1 and never clamps below 1.
  EXPECT_GE(small->EstimatedDistinct(1), 1.0);
  EXPECT_LE(small->EstimatedDistinct(1), 2.0);

  // Large cardinality: a 64-register HLL has ~13% standard error;
  // accept a generous 2x band, and the [1, size] clamp.
  for (int i = 0; i < 3000; ++i) {
    db.AddFact("big", {"u" + std::to_string(i), "w"});
  }
  const chase::Relation* big = db.Find("big");
  ASSERT_NE(big, nullptr);
  EXPECT_GE(big->EstimatedDistinct(0), 1500.0);
  EXPECT_LE(big->EstimatedDistinct(0), 3000.0);  // clamped at size()
}

TEST(RelationStatsTest, EstimatedDistinctIsInsertionOrderIndependent) {
  auto dict = Dict();
  std::vector<std::pair<std::string, std::string>> facts;
  std::mt19937 rng(9);
  for (int i = 0; i < 500; ++i) {
    facts.emplace_back("x" + std::to_string(rng() % 90),
                       "y" + std::to_string(rng() % 40));
  }
  chase::Instance fwd(dict), rev(dict);
  for (const auto& [a, b] : facts) fwd.AddFact("e", {a, b});
  std::reverse(facts.begin(), facts.end());
  for (const auto& [a, b] : facts) rev.AddFact("e", {a, b});
  // Same fact set, opposite insertion order: bit-identical estimates —
  // the planner property that keeps plans deterministic across
  // strategies and thread counts.
  for (uint32_t pos : {0u, 1u}) {
    EXPECT_EQ(fwd.Find("e")->EstimatedDistinct(pos),
              rev.Find("e")->EstimatedDistinct(pos));
  }
}

TEST(RelationStatsTest, LexPermOrdersByKeyThenIndexAndExtends) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(17);
  auto add = [&](int n) {
    for (int i = 0; i < n; ++i) {
      db.AddFact("e", {"p" + std::to_string(rng() % 6),
                       "q" + std::to_string(rng() % 11),
                       "r" + std::to_string(rng() % 3)});
    }
  };
  add(100);
  const chase::Relation* rel = db.Find("e");
  ASSERT_NE(rel, nullptr);
  std::vector<uint32_t> key = {1, 2};
  ExpectLexOrder(*rel, key, rel->LexPerm(key));
  // Incremental extension: the tail is sorted and merged, not rebuilt.
  add(60);
  ExpectLexOrder(*rel, key, rel->LexPerm(key));
  // A different key is an independent permutation.
  std::vector<uint32_t> key2 = {2, 0, 1};
  ExpectLexOrder(*rel, key2, rel->LexPerm(key2));
  // Single-position keys alias the sorted permutation: same order.
  std::vector<uint32_t> key1 = {1};
  ExpectLexOrder(*rel, key1, rel->LexPerm(key1));
}

// ---- concurrent readers of a published relation -----------------------

/// A published snapshot's relations are shared and never grow: readers
/// build missing indexes on first use — posting probes, a driver's full
/// window, leapfrog lex permutations — while the writer copies the same
/// relations into the next snapshot. Two readers first-touching every
/// index of a never-synced relation while a third thread copies it must
/// not race (ThreadSanitizer builds catch a regression).
TEST(RelationConcurrencyTest, FirstUseBuildsRaceCopy) {
  chase::Relation rel(2);
  // 61 and 97 are coprime and 61 * 97 > 4096: every tuple is distinct.
  for (uint32_t i = 0; i < 4096; ++i) {
    rel.Insert(chase::Tuple{chase::Term::Constant(i % 61),
                            chase::Term::Constant(i % 97)});
  }
  const std::vector<uint32_t> key = {1, 0};
  const std::vector<uint32_t>* perms[2] = {nullptr, nullptr};
  std::vector<uint32_t> windows[2];
  size_t postings[2] = {0, 0};
  auto read = [&](int r) {
    postings[r] = rel.Postings(0, chase::Term::Constant(5)).size();
    rel.SortWindow(1, 0, 4096, &windows[r]);
    perms[r] = &rel.LexPerm(key);
  };
  std::unique_ptr<chase::Relation> copy;
  std::thread first(read, 0);
  std::thread second(read, 1);
  std::thread copier([&] { copy = std::make_unique<chase::Relation>(rel); });
  first.join();
  second.join();
  copier.join();

  EXPECT_EQ(perms[0], perms[1]);  // one permutation, built once
  ExpectLexOrder(rel, key, *perms[0]);
  EXPECT_EQ(windows[0], windows[1]);
  EXPECT_EQ(windows[0], SortedIndices(rel, 1));
  // 4096 = 67 * 61 + 9, so value 5 occurs 68 times in position 0.
  EXPECT_EQ(postings[0], 68u);
  EXPECT_EQ(postings[1], 68u);
  ASSERT_EQ(copy->size(), rel.size());
  EXPECT_EQ(copy->LexPerm(key), *perms[0]);
}

}  // namespace
}  // namespace triq
