// StringDictionary + Arena unit coverage, plus the dictionary-vs-string
// differential suite: every consumer rewritten onto dense codes is
// checked against a naive boxed-Value reference implementation on the
// same inputs (and, for randomized response, the same RNG stream).

#include "table/dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "cleaning/transform.h"
#include "common/arena.h"
#include "common/random.h"
#include "privacy/randomized_response.h"
#include "randomize_column.h"
#include "query/predicate.h"
#include "table/domain.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

// --- StringDictionary -----------------------------------------------------

TEST(StringDictionaryTest, InternAssignsDenseCodesInFirstSeenOrder) {
  StringDictionary d;
  EXPECT_EQ(d.Intern("b"), 0u);
  EXPECT_EQ(d.Intern("a"), 1u);
  EXPECT_EQ(d.Intern("b"), 0u);  // Idempotent.
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.At(0), "b");
  EXPECT_EQ(d.At(1), "a");
}

TEST(StringDictionaryTest, FindDoesNotIntern) {
  StringDictionary d;
  d.Intern("x");
  EXPECT_EQ(d.Find("x"), 0u);
  EXPECT_EQ(d.Find("missing"), kNullCode);
  EXPECT_EQ(d.size(), 1u);
}

TEST(StringDictionaryTest, ViewsAreStableAcrossGrowth) {
  StringDictionary d;
  std::string_view first = d.At(d.Intern("stable"));
  // Force many arena chunks; the first view must not move.
  for (int i = 0; i < 20000; ++i) {
    d.Intern("filler_" + std::to_string(i));
  }
  EXPECT_EQ(first, "stable");
  EXPECT_EQ(d.At(0), "stable");
  EXPECT_EQ(d.Find("stable"), 0u);
}

TEST(StringDictionaryTest, CopyPreservesCodesAndDetachesStorage) {
  StringDictionary d;
  d.Intern("a");
  d.Intern("b");
  StringDictionary copy(d);
  d.Intern("c");  // Must not appear in the copy.
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.At(0), "a");
  EXPECT_EQ(copy.At(1), "b");
  EXPECT_EQ(copy.Find("c"), kNullCode);
  EXPECT_EQ(copy.Find("b"), d.Find("b"));
}

TEST(StringDictionaryTest, EmptyStringIsAnOrdinaryEntry) {
  StringDictionary d;
  EXPECT_EQ(d.Intern(""), 0u);
  EXPECT_EQ(d.Find(""), 0u);
  EXPECT_EQ(d.At(0), "");
}

// --- Arena ----------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAligned) {
  Arena a("test/align");
  for (size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void* p = a.Allocate(3, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
}

TEST(ArenaTest, CopyStringSurvivesChunkGrowth) {
  Arena a("test/growth");
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 5000; ++i) {
    originals.push_back("value_" + std::to_string(i));
  }
  for (const std::string& s : originals) views.push_back(a.CopyString(s));
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
    EXPECT_NE(views[i].data(), originals[i].data());  // A real copy.
  }
  EXPECT_GE(a.bytes_used(), views.size());
  EXPECT_GE(a.bytes_reserved(), a.bytes_used());
}

TEST(ArenaTest, ResetReleasesAccounting) {
  Arena a("test/reset");
  a.CopyString("something long enough to count");
  EXPECT_GT(a.bytes_used(), 0u);
  a.Reset();
  EXPECT_EQ(a.bytes_used(), 0u);
  EXPECT_EQ(a.bytes_reserved(), 0u);
  EXPECT_EQ(a.alloc_count(), 0u);
  // Still usable after Reset.
  EXPECT_EQ(a.CopyString("again"), "again");
}

TEST(ArenaTest, ZeroByteAllocationIsNonNull) {
  Arena a("test/zero");
  EXPECT_NE(a.Allocate(0), nullptr);
  EXPECT_EQ(a.CopyString(""), "");
}

TEST(ArenaProfilerTest, TracksPerSiteCountersAndPeak) {
  const char* site = "test/profiler_site";
  ArenaSiteStats before = ArenaProfiler::ForSite(site);
  {
    Arena a(site);
    a.CopyString("0123456789");  // 10 bytes.
    ArenaSiteStats live = ArenaProfiler::ForSite(site);
    EXPECT_EQ(live.alloc_calls, before.alloc_calls + 1);
    EXPECT_EQ(live.alloc_bytes, before.alloc_bytes + 10);
    EXPECT_EQ(live.live_bytes, before.live_bytes + 10);
    EXPECT_GE(live.peak_live_bytes, live.live_bytes);
  }
  // Destruction returns live bytes, never the cumulative counters.
  ArenaSiteStats after = ArenaProfiler::ForSite(site);
  EXPECT_EQ(after.alloc_calls, before.alloc_calls + 1);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_GE(after.peak_live_bytes, before.live_bytes + 10);
}

TEST(ArenaProfilerTest, SnapshotIsSortedAndIncludesKnownSites) {
  Arena a("test/snapshot_site");
  a.CopyString("x");
  std::vector<ArenaSiteStats> snapshot = ArenaProfiler::Snapshot();
  ASSERT_FALSE(snapshot.empty());
  bool found = false;
  for (size_t i = 0; i < snapshot.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(snapshot[i - 1].site, snapshot[i].site);
    }
    if (snapshot[i].site == "test/snapshot_site") found = true;
  }
  EXPECT_TRUE(found);
  ArenaSiteStats totals = ArenaProfiler::Totals();
  uint64_t sum = 0;
  for (const ArenaSiteStats& s : snapshot) sum += s.alloc_bytes;
  EXPECT_EQ(totals.alloc_bytes, sum);
}

// --- Dictionary-vs-string differential suite ------------------------------

Table MakeStringTable(size_t rows, uint64_t seed) {
  Schema s = *Schema::Make({Field::Discrete("city")});
  TableBuilder b(s);
  Rng rng(seed);
  const char* cities[] = {"Berkeley", "Oakland", "", "San Jose, CA",
                          "Fre\"mont", "O'Brien"};
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Bernoulli(0.1)) {
      b.Row({Value::Null()});
    } else {
      b.Row({Value(cities[rng.UniformInt(6)])});
    }
  }
  return *b.Finish();
}

TEST(DictionaryDifferentialTest, PredicateEvaluateMatchesRowWiseReference) {
  Table t = MakeStringTable(4000, 91);
  const Column& col = t.column(0);
  for (const Predicate& pred :
       {Predicate::Equals("city", "Oakland"),
        Predicate::Equals("city", ""),
        Predicate::Equals("city", "missing-from-table"),
        Predicate::In("city", {Value("Berkeley"), Value::Null()}),
        Predicate::IsNull("city"),
        Predicate::Equals("city", "Oakland").Negate()}) {
    std::vector<uint8_t> fast = *pred.Evaluate(t, ExecutionOptions{});
    ASSERT_EQ(fast.size(), t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(fast[r] != 0, pred.Matches(col.ValueAt(r))) << "row " << r;
    }
  }
}

TEST(DictionaryDifferentialTest, DomainFromColumnMatchesFirstAppearance) {
  Table t = MakeStringTable(3000, 17);
  const Column& col = t.column(0);
  for (bool include_null : {true, false}) {
    Domain fast = *Domain::FromColumn(t, "city", include_null);
    // Naive reference: boxed values in row order, first appearance wins.
    std::vector<Value> order;
    std::unordered_set<Value, ValueHash> seen;
    for (size_t r = 0; r < col.size(); ++r) {
      Value v = col.ValueAt(r);
      if (v.is_null() && !include_null) continue;
      if (seen.insert(v).second) order.push_back(v);
    }
    ASSERT_EQ(fast.size(), order.size()) << include_null;
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(fast.value(i), order[i]) << "slot " << i;
    }
  }
}

TEST(DictionaryDifferentialTest,
     RandomizedResponseMatchesBoxedReferenceStream) {
  Table t = MakeStringTable(2500, 5);
  Domain domain = *Domain::FromColumn(t, "city", /*include_null=*/true);

  Column fast = t.column(0).SelectRows([&] {
    std::vector<size_t> all(t.num_rows());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }());
  Rng rng_fast(1234);
  ASSERT_TRUE(RandomizeColumn(&fast, domain, 0.35, rng_fast).ok());

  // Reference: identical draw sequence (one Bernoulli per row, one
  // uniform draw only on replacement), applied through boxed SetValue.
  Column ref = t.column(0).SelectRows([&] {
    std::vector<size_t> all(t.num_rows());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }());
  Rng rng_ref(1234);
  for (size_t r = 0; r < ref.size(); ++r) {
    if (!rng_ref.Bernoulli(0.35)) continue;
    size_t j = static_cast<size_t>(rng_ref.UniformInt(domain.size()));
    ASSERT_TRUE(ref.SetValue(r, domain.value(j)).ok());
  }

  ASSERT_EQ(fast.size(), ref.size());
  EXPECT_EQ(fast.null_count(), ref.null_count());
  for (size_t r = 0; r < fast.size(); ++r) {
    EXPECT_EQ(fast.ValueAt(r), ref.ValueAt(r)) << "row " << r;
  }
}

TEST(DictionaryDifferentialTest, ValueTransformMatchesRowWiseReference) {
  Table fast_t = MakeStringTable(2000, 77);
  Table ref_t = fast_t.Clone();
  auto fn = [](const Value& v) -> Value {
    if (v.is_null()) return Value("was-null");
    if (v.AsString().empty()) return Value::Null();  // ""→NULL transition.
    return Value(v.AsString() + "!");
  };
  ValueTransform transform("city", fn);
  ASSERT_TRUE(transform.Apply(&fast_t).ok());
  // Reference: apply the UDF row by row through boxed SetValue.
  Column* ref_col = *ref_t.MutableColumnByName("city");
  for (size_t r = 0; r < ref_col->size(); ++r) {
    ASSERT_TRUE(ref_col->SetValue(r, fn(ref_col->ValueAt(r))).ok());
  }
  const Column& fast_col = fast_t.column(0);
  ASSERT_EQ(fast_col.size(), ref_col->size());
  EXPECT_EQ(fast_col.null_count(), ref_col->null_count());
  for (size_t r = 0; r < fast_col.size(); ++r) {
    EXPECT_EQ(fast_col.ValueAt(r), ref_col->ValueAt(r)) << "row " << r;
  }
}

}  // namespace
}  // namespace privateclean
