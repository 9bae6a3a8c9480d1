#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chase/instance.h"
#include "chase/relation.h"
#include "rdf/graph.h"

namespace triq::chase {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  Tuple t = {Term::Constant(1), Term::Constant(2)};
  uint32_t idx = 99;
  EXPECT_TRUE(rel.Insert(t, &idx));
  EXPECT_EQ(idx, 0u);
  EXPECT_FALSE(rel.Insert(t, &idx));
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, PostingsPerPosition) {
  Relation rel(2);
  rel.Insert({Term::Constant(1), Term::Constant(2)});
  rel.Insert({Term::Constant(1), Term::Constant(3)});
  rel.Insert({Term::Constant(4), Term::Constant(2)});
  SortedRange by_first = rel.Postings(0, Term::Constant(1));
  EXPECT_EQ(by_first.size(), 2u);
  SortedRange by_second = rel.Postings(1, Term::Constant(2));
  EXPECT_EQ(by_second.size(), 2u);
  EXPECT_TRUE(rel.Postings(0, Term::Constant(42)).empty());
}

TEST(RelationTest, NullsAreIndexedLikeConstants) {
  Relation rel(1);
  rel.Insert({Term::Null(7)});
  SortedRange postings = rel.Postings(0, Term::Null(7));
  EXPECT_EQ(postings.size(), 1u);
  EXPECT_TRUE(rel.Contains({Term::Null(7)}));
  EXPECT_FALSE(rel.Contains({Term::Null(8)}));
}

TEST(RelationTest, ColumnScanReadsOnePositionContiguously) {
  Relation rel(2);
  rel.Insert({Term::Constant(5), Term::Constant(6)});
  rel.Insert({Term::Constant(7), Term::Constant(8)});
  ColumnScan first = rel.Column(0);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], Term::Constant(5));
  EXPECT_EQ(first[1], Term::Constant(7));
  // The column really is contiguous memory.
  EXPECT_EQ(first.begin() + 2, first.end());
  ColumnScan second = rel.Column(1);
  EXPECT_EQ(second[0], Term::Constant(6));
  EXPECT_EQ(second[1], Term::Constant(8));
}

TEST(InstanceTest, AddFactCreatesRelations) {
  auto dict = Dict();
  Instance db(dict);
  EXPECT_TRUE(db.AddFact("p", {"a", "b"}));
  EXPECT_FALSE(db.AddFact("p", {"a", "b"}));
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_NE(db.Find(dict->Intern("p")), nullptr);
  EXPECT_EQ(db.Find(dict->Intern("q")), nullptr);
}

TEST(RelationTest, TupleViewsReadFlatStorage) {
  Relation rel(2);
  rel.Insert({Term::Constant(1), Term::Constant(2)});
  rel.Insert({Term::Constant(3), Term::Constant(4)});
  EXPECT_EQ(rel.tuple(1)[0], Term::Constant(3));
  EXPECT_EQ(rel.tuple(0), (Tuple{Term::Constant(1), Term::Constant(2)}));
  size_t seen = 0;
  for (TupleView t : rel.tuples()) {
    EXPECT_EQ(t.size(), 2u);
    ++seen;
  }
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(rel.FindIndex(Tuple{Term::Constant(3), Term::Constant(4)}), 1u);
  EXPECT_EQ(rel.FindIndex(Tuple{Term::Constant(3), Term::Constant(5)}),
            Relation::kNotFound);
}

TEST(RelationTest, ZeroArityRelationHoldsOneEmptyTuple) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(Tuple{}));
  size_t seen = 0;
  for (TupleView t : rel.tuples()) {
    EXPECT_TRUE(t.empty());
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
}

TEST(RelationTest, PostingsStayInTupleIndexOrder) {
  Relation rel(2);
  for (uint32_t i = 0; i < 100; ++i) {
    rel.Insert({Term::Constant(1 + i % 3), Term::Constant(100 + i)});
  }
  for (uint32_t v = 1; v <= 3; ++v) {
    SortedRange postings = rel.Postings(0, Term::Constant(v));
    ASSERT_FALSE(postings.empty());
    EXPECT_TRUE(std::is_sorted(postings.begin(), postings.end()));
  }
}

// Checks the sorted-permutation contract for one position: a
// permutation of every stored tuple index, ordered by column value with
// ascending tuple index as the tiebreak.
void ExpectSortedInvariants(const Relation& rel, uint32_t pos) {
  SortedRange sorted = rel.Sorted(pos);
  ASSERT_EQ(sorted.size(), rel.size());
  std::vector<bool> seen(rel.size(), false);
  const uint32_t* prev = nullptr;
  for (const uint32_t* it = sorted.begin(); it != sorted.end(); ++it) {
    ASSERT_LT(*it, rel.size());
    EXPECT_FALSE(seen[*it]) << "duplicate tuple index in permutation";
    seen[*it] = true;
    if (prev != nullptr) {
      Term a = sorted.ValueAt(prev);
      Term b = sorted.ValueAt(it);
      EXPECT_TRUE(a < b || (a == b && *prev < *it))
          << "permutation out of (value, index) order";
    }
    prev = it;
  }
}

TEST(RelationTest, SortedPermutationSurvivesInterleavedInserts) {
  // Sorted access interleaved with inserts: every sync (sort the tail,
  // merge with the prefix) must restore the full invariant.
  Relation rel(2);
  uint32_t next = 0;
  std::mt19937 rng(42);
  for (int round = 0; round < 8; ++round) {
    int batch = 1 + static_cast<int>(rng() % 13);
    for (int i = 0; i < batch; ++i) {
      rel.Insert({Term::Constant(1 + rng() % 7), Term::Constant(next++)});
    }
    ExpectSortedInvariants(rel, 0);
    if (round % 2 == 0) ExpectSortedInvariants(rel, 1);  // lagging sync
  }
  // Postings(=Equal slices) agree with a brute-force scan.
  for (uint32_t v = 1; v <= 7; ++v) {
    SortedRange postings = rel.Postings(0, Term::Constant(v));
    std::vector<uint32_t> brute;
    for (uint32_t i = 0; i < rel.size(); ++i) {
      if (rel.tuple(i)[0] == Term::Constant(v)) brute.push_back(i);
    }
    EXPECT_EQ(std::vector<uint32_t>(postings.begin(), postings.end()), brute);
  }
}

TEST(RelationTest, SortWindowSlicesDeltaWindows) {
  Relation rel(2);
  std::mt19937 rng(7);
  for (int i = 0; i < 60; ++i) {
    rel.Insert({Term::Constant(1 + rng() % 5), Term::Constant(100 + i)});
  }
  // Every window [begin, end) sorts to the brute-force (value, index)
  // order of exactly that slice — the semi-naive delta contract.
  std::vector<uint32_t> window;
  for (auto [begin, end] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 60}, {10, 25}, {59, 60}, {30, 30}, {50, 999}}) {
    rel.SortWindow(0, begin, end, &window);
    uint32_t capped = std::min<uint32_t>(end, 60);
    std::vector<uint32_t> brute;
    for (uint32_t i = begin; i < capped; ++i) brute.push_back(i);
    std::stable_sort(brute.begin(), brute.end(),
                     [&](uint32_t a, uint32_t b) {
                       return rel.tuple(a)[0] < rel.tuple(b)[0];
                     });
    EXPECT_EQ(window, brute) << "window [" << begin << ", " << end << ")";
  }
}

TEST(RelationTest, SeekValueGallopsToLowerBound) {
  // One value column with duplicates for the cursor to group.
  Relation dup(2);
  for (uint32_t i = 0; i < 40; ++i) {
    dup.Insert({Term::Constant(2 * (i % 10)), Term::Constant(1000 + i)});
  }
  SortedRange sorted = dup.Sorted(0);
  const uint32_t* cursor = sorted.begin();
  for (uint32_t v = 0; v < 22; ++v) {  // monotone seeks incl. misses
    cursor = sorted.SeekValue(cursor, Term::Constant(v));
    const uint32_t* expected = sorted.begin();
    while (expected != sorted.end() &&
           sorted.ValueAt(expected) < Term::Constant(v)) {
      ++expected;
    }
    EXPECT_EQ(cursor, expected) << "seek to " << v;
  }
  EXPECT_EQ(sorted.SeekValue(sorted.begin(), Term::Constant(999)),
            sorted.end());
}

TEST(InstanceTest, AddFactRejectsArityMismatch) {
  auto dict = Dict();
  Instance db(dict);
  ASSERT_TRUE(db.AddFact("p", {"a", "b"}));
  // The unchecked entry point drops the wrong-width tuple instead of
  // corrupting the relation's flat storage...
  EXPECT_FALSE(db.AddFact("p", {"a"}));
  EXPECT_FALSE(db.AddFact("p", {"a", "b", "c"}));
  const Relation* rel = db.Find(dict->Intern("p"));
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->arity(), 2u);
  EXPECT_EQ(rel->size(), 1u);
  // ...and the checked one surfaces the error.
  PredicateId p = dict->Intern("p");
  auto narrow = db.AddFactChecked(p, Tuple{Term::Constant(dict->Intern("a"))});
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.status().code(), StatusCode::kInvalidArgument);
  auto fits = db.AddFactChecked(
      p, Tuple{Term::Constant(dict->Intern("a")),
               Term::Constant(dict->Intern("z"))});
  ASSERT_TRUE(fits.ok());
  EXPECT_TRUE(*fits);
  EXPECT_EQ(db.TotalFacts(), 2u);
}

TEST(InstanceTest, NullAllocationTracksDepth) {
  auto dict = Dict();
  Instance db(dict);
  Term z0 = db.AllocateNull(1);
  Term z1 = db.AllocateNull(5);
  EXPECT_NE(z0, z1);
  EXPECT_EQ(db.NullDepth(z0), 1u);
  EXPECT_EQ(db.NullDepth(z1), 5u);
  EXPECT_EQ(db.null_count(), 2u);
}

TEST(InstanceTest, NullDepthGuardsNonNullTerms) {
  auto dict = Dict();
  Instance db(dict);
  Term z = db.AllocateNull(4);
  EXPECT_EQ(db.NullDepth(z), 4u);
  // Constants are database-level (depth 0), not an out-of-bounds read.
  EXPECT_EQ(db.NullDepth(Term::Constant(dict->Intern("a"))), 0u);
  // Unregistered null ids (e.g. backward-prover placeholders) too.
  EXPECT_EQ(db.NullDepth(Term::Null(12345)), 0u);
}

TEST(InstanceTest, GroundFactsFilterNulls) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("p", {"a"});
  Term z = db.AllocateNull(1);
  db.AddFact(dict->Intern("q"), {z});
  EXPECT_EQ(db.AllFacts().size(), 2u);
  EXPECT_EQ(db.GroundFacts().size(), 1u);
}

TEST(InstanceTest, ToStringIsSortedAndStable) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("b_rel", {"x"});
  db.AddFact("a_rel", {"y"});
  EXPECT_EQ(db.ToString(), "a_rel(y)\nb_rel(x)\n");
}

TEST(InstanceTest, FromGraphLoadsTripleFacts) {
  auto dict = Dict();
  rdf::Graph g(dict);
  g.Add("s", "p", "o");
  g.Add("s2", "p", "o2");
  Instance db = Instance::FromGraph(g);
  const Relation* triples = db.Find(dict->Intern("triple"));
  ASSERT_NE(triples, nullptr);
  EXPECT_EQ(triples->size(), 2u);
  EXPECT_EQ(triples->arity(), 3u);
}

TEST(InstanceTest, ToGraphExportsTriplesWithBlankNulls) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("output", {"alice", "knows", "bob"});
  Term z = db.AllocateNull(1);
  db.AddFact(dict->Intern("output"),
             {z, Term::Constant(dict->Intern("likes")),
              Term::Constant(dict->Intern("tea"))});
  auto graph = db.ToGraph("output");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->size(), 2u);
  EXPECT_NE(dict->Find("_:n0"), kInvalidSymbol);
}

TEST(InstanceTest, ToGraphRejectsWrongArity) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("pair", {"a", "b"});
  EXPECT_FALSE(db.ToGraph("pair").ok());
}

TEST(InstanceTest, ToGraphOnMissingPredicateIsEmpty) {
  auto dict = Dict();
  Instance db(dict);
  auto graph = db.ToGraph("nothing");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->size(), 0u);
}

TEST(InstanceTest, GraphRoundTrip) {
  auto dict = Dict();
  rdf::Graph g(dict);
  g.Add("s", "p", "o");
  g.Add("a", "b", "c");
  Instance db = Instance::FromGraph(g);
  auto back = db.ToGraph("triple");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), g.size());
  for (const rdf::Triple& t : g.triples()) {
    EXPECT_TRUE(back->Contains(t));
  }
}

TEST(InstanceTest, GraphRoundTripPreservesNullIdentity) {
  auto dict = Dict();
  Instance db(dict);
  Term z = db.AllocateNull(1);
  db.AddFact(dict->Intern("triple"),
             {z, Term::Constant(dict->Intern("likes")),
              Term::Constant(dict->Intern("tea"))});
  db.AddFact(dict->Intern("triple"),
             {z, Term::Constant(dict->Intern("likes")),
              Term::Constant(dict->Intern("jazz"))});
  auto graph = db.ToGraph("triple");
  ASSERT_TRUE(graph.ok());
  Instance back = Instance::FromGraph(*graph);
  const Relation* rel = back.Find(dict->Intern("triple"));
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 2u);
  // The exported `_:n<k>` blank nodes re-enter as the same labeled
  // null, not as fresh constants.
  EXPECT_TRUE(rel->tuple(0)[0].IsNull());
  EXPECT_EQ(rel->tuple(0)[0], z);
  EXPECT_EQ(rel->tuple(1)[0], z);
  EXPECT_GE(back.null_count(), 1u);
  // And a URI that merely looks null-ish but isn't `_:n<digits>` stays
  // a constant.
  rdf::Graph g2(dict);
  g2.Add("_:n12x", "p", "o");
  g2.Add("_:b0", "p", "o");
  Instance other = Instance::FromGraph(g2);
  const Relation* rel2 = other.Find(dict->Intern("triple"));
  ASSERT_NE(rel2, nullptr);
  for (TupleView t : rel2->tuples()) EXPECT_TRUE(t[0].IsConstant());
}

TEST(InstanceTest, CloneFactsCopiesRelationsAndNulls) {
  auto dict = Dict();
  Instance db(dict);
  db.AddFact("p", {"a", "b"});
  Term z = db.AllocateNull(3);
  db.AddFact(dict->Intern("q"), {z});
  Instance copy = db.CloneFacts();
  EXPECT_EQ(copy.ToString(), db.ToString());
  EXPECT_EQ(copy.null_count(), db.null_count());
  EXPECT_EQ(copy.NullDepth(z), 3u);
  // Independent storage: growing the copy leaves the original alone.
  copy.AddFact("p", {"x", "y"});
  EXPECT_EQ(copy.TotalFacts(), 3u);
  EXPECT_EQ(db.TotalFacts(), 2u);
}

// ---- overlays ------------------------------------------------------------

Term C(Dictionary& dict, std::string_view text) {
  return Term::Constant(dict.Intern(text));
}

TEST(InstanceTest, OverlayFindFallsThroughToTheBase) {
  auto dict = Dict();
  Instance base(dict);
  base.AddFact("p", {"a", "b"});
  base.AddFact("q", {"c"});
  Instance overlay = Instance::MakeOverlay(&base);
  const PredicateId p = dict->Intern("p");
  const PredicateId r = dict->Intern("r");
  EXPECT_EQ(overlay.overlay_base(), &base);
  // Base relations are read in place, not copied.
  EXPECT_EQ(overlay.Find(p), base.Find(p));
  EXPECT_EQ(overlay.Find("q"), base.Find("q"));
  EXPECT_EQ(overlay.Find(r), nullptr);
  EXPECT_EQ(overlay.Find("never_interned"), nullptr);

  // The overlay's own relations are found, and stay invisible to the base.
  EXPECT_TRUE(overlay.AddFact(r, Tuple{C(*dict, "a")}));
  const Relation* own = overlay.Find(r);
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(own->size(), 1u);
  EXPECT_EQ(overlay.Find("r"), own);
  EXPECT_EQ(&overlay.GetOrCreate(r, 1), own);
  EXPECT_EQ(base.Find(r), nullptr);
  EXPECT_EQ(overlay.relations().size(), 1u);
  EXPECT_EQ(base.relations().size(), 2u);
}

TEST(InstanceTest, OverlayPredicatesFarAboveTheBaseAfterDictionaryGrowth) {
  // Query overlays hold the newest, hence largest, predicate ids: ids
  // interned after the dictionary grew far past the base's predicates.
  auto dict = Dict();
  Instance base(dict);
  base.AddFact("edge", {"a", "b"});
  const size_t before = dict->size();
  for (int i = 0; i < 100000; ++i) dict->Intern("s" + std::to_string(i));
  ASSERT_EQ(dict->size(), before + 100000);
  const PredicateId far = dict->Intern("answer@far");
  ASSERT_GT(far, dict->Intern("edge") + 100000);

  Instance overlay = Instance::MakeOverlay(&base);
  Relation& rel = overlay.GetOrCreate(far, 2);
  EXPECT_EQ(rel.arity(), 2u);
  EXPECT_TRUE(overlay.AddFact(far, Tuple{C(*dict, "a"), C(*dict, "b")}));
  EXPECT_FALSE(overlay.AddFact(far, Tuple{C(*dict, "a"), C(*dict, "b")}));
  EXPECT_EQ(overlay.Find(far), &rel);
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(overlay.Contains(far, Tuple{C(*dict, "a"), C(*dict, "b")}));
  EXPECT_EQ(base.Find(far), nullptr);
  // A second far predicate lands beside the first.
  const PredicateId farther = dict->Intern("q@farther");
  EXPECT_TRUE(overlay.AddFact(farther, Tuple{C(*dict, "c")}));
  EXPECT_EQ(overlay.relations().size(), 2u);
  EXPECT_EQ(overlay.Find(far), &rel);
}

TEST(InstanceTest, OverlayContainsSizesTotalsAndNulls) {
  auto dict = Dict();
  Instance base(dict);
  base.AddFact("p", {"a", "b"});
  base.AddFact("p", {"b", "c"});
  Term z0 = base.AllocateNull(1);
  Term z1 = base.AllocateNull(2);
  const PredicateId p = dict->Intern("p");
  const PredicateId r = dict->Intern("r");

  Instance overlay = Instance::MakeOverlay(&base);
  EXPECT_EQ(overlay.TotalFacts(), 2u);
  EXPECT_EQ(overlay.null_count(), 2u);

  // Nulls the overlay allocates start above the base's range; base nulls
  // keep their base depths.
  Term z2 = overlay.AllocateNull(4);
  EXPECT_EQ(z2, Term::Null(2));
  EXPECT_NE(z2, z0);
  EXPECT_NE(z2, z1);
  EXPECT_EQ(overlay.NullDepth(z0), 1u);
  EXPECT_EQ(overlay.NullDepth(z1), 2u);
  EXPECT_EQ(overlay.NullDepth(z2), 4u);
  EXPECT_EQ(overlay.null_count(), 3u);
  EXPECT_EQ(base.null_count(), 2u);

  EXPECT_TRUE(overlay.AddFact(r, Tuple{C(*dict, "a"), z2}));
  EXPECT_TRUE(overlay.Contains(p, Tuple{C(*dict, "a"), C(*dict, "b")}));
  EXPECT_TRUE(overlay.Contains(r, Tuple{C(*dict, "a"), z2}));
  EXPECT_FALSE(overlay.Contains(r, Tuple{C(*dict, "a"), z0}));
  EXPECT_FALSE(overlay.Contains(r, Tuple{C(*dict, "a")}));  // wrong arity
  EXPECT_FALSE(base.Contains(r, Tuple{C(*dict, "a"), z2}));

  std::unordered_map<PredicateId, size_t> sizes = overlay.RelationSizes();
  EXPECT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[p], 2u);
  EXPECT_EQ(sizes[r], 1u);
  EXPECT_EQ(overlay.TotalFacts(), 3u);
  EXPECT_EQ(base.TotalFacts(), 2u);
}

TEST(InstanceTest, MovedOverlayKeepsItsRelationsAndBase) {
  auto dict = Dict();
  Instance base(dict);
  base.AddFact("p", {"a"});
  const PredicateId p = dict->Intern("p");
  const PredicateId r = dict->Intern("r");
  Instance overlay = Instance::MakeOverlay(&base);
  ASSERT_TRUE(overlay.AddFact(r, Tuple{C(*dict, "b")}));
  Term z = overlay.AllocateNull(3);
  const Relation* own = overlay.Find(r);

  Instance moved(std::move(overlay));
  EXPECT_EQ(moved.overlay_base(), &base);
  EXPECT_EQ(moved.Find(r), own);  // the map's nodes moved, not copied
  EXPECT_EQ(moved.Find(p), base.Find(p));
  EXPECT_EQ(moved.NullDepth(z), 3u);
  EXPECT_TRUE(moved.AddFact(r, Tuple{C(*dict, "c")}));
  EXPECT_EQ(moved.Find(r)->size(), 2u);

  Instance assigned(dict);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.overlay_base(), &base);
  EXPECT_EQ(assigned.Find(r), own);
  EXPECT_EQ(assigned.Find(p), base.Find(p));
  EXPECT_EQ(assigned.TotalFacts(), 3u);
  EXPECT_EQ(assigned.AllocateNull(0), Term::Null(1));
}

TEST(InstanceTest, DerivationRecordKeepsFirst) {
  auto dict = Dict();
  Instance db(dict);
  FactRef ref;
  db.AddFact(dict->Intern("p"), {Term::Constant(dict->Intern("a"))}, &ref);
  db.RecordDerivation(ref, Derivation{3, {}});
  db.RecordDerivation(ref, Derivation{9, {}});
  const Derivation* d = db.FindDerivation(ref);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule_index, 3u);
}

}  // namespace
}  // namespace triq::chase
