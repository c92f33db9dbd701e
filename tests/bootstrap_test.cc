#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/privateclean.h"
#include "datagen/synthetic.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

TEST(TableTakeTest, SelectsRowsInOrderWithRepeats) {
  Schema s = *Schema::Make({Field::Discrete("d"),
                            Field::Numerical("x", ValueType::kDouble)});
  TableBuilder b(s);
  b.Row({Value("a"), Value(1.0)})
      .Row({Value("b"), Value(2.0)})
      .Row({Value("c"), Value(3.0)});
  Table t = *b.Finish();
  Table taken = *t.Take({2, 0, 2, 2});
  ASSERT_EQ(taken.num_rows(), 4u);
  EXPECT_EQ(*taken.GetValue(0, "d"), Value("c"));
  EXPECT_EQ(*taken.GetValue(1, "d"), Value("a"));
  EXPECT_EQ(*taken.GetValue(3, "x"), Value(3.0));
}

TEST(TableTakeTest, EmptySelection) {
  Schema s = *Schema::Make({Field::Discrete("d")});
  TableBuilder b(s);
  b.Row({Value("a")});
  Table t = *b.Finish();
  EXPECT_EQ(t.Take({})->num_rows(), 0u);
}

TEST(TableTakeTest, RejectsOutOfRange) {
  Schema s = *Schema::Make({Field::Discrete("d")});
  TableBuilder b(s);
  b.Row({Value("a")});
  Table t = *b.Finish();
  auto r = t.Take({0, 1});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
}

/// A §10 extension aggregate through the query plan, wrapped in a
/// bootstrap interval of `replicates` replicates seeded by `seed`.
Result<QueryResult> Bootstrap(const PrivateTable& pt,
                              const AggregateQuery& query, uint64_t seed,
                              size_t replicates, double confidence = 0.95,
                              const ExecutionOptions& exec = {}) {
  QueryOptions options;
  options.bootstrap_replicates = replicates;
  options.bootstrap_seed = seed;
  options.confidence = confidence;
  options.exec = exec;
  return pt.Execute(query, options);
}

class BootstrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticOptions options;
    options.num_rows = 600;
    Rng data_rng(1);
    data_.emplace(*GenerateSynthetic(options, data_rng));
    Rng rng(2);
    pt_.emplace(*PrivateTable::Create(
        *data_, GrrParams::Uniform(0.1, 3.0), GrrOptions{}, rng));
  }

  std::optional<Table> data_;
  std::optional<PrivateTable> pt_;
};

TEST_F(BootstrapTest, PointEstimateMatchesPointQuery) {
  AggregateQuery median{AggregateType::kMedian, "value", std::nullopt,
                        50.0};
  QueryResult boot = *Bootstrap(*pt_, median, 3, 100);
  EXPECT_DOUBLE_EQ(boot.estimate, pt_->Execute(median)->estimate);
}

TEST_F(BootstrapTest, IntervalContainsPointAndIsNontrivial) {
  AggregateQuery median{AggregateType::kMedian, "value", std::nullopt,
                        50.0};
  QueryResult boot = *Bootstrap(*pt_, median, 4, 200);
  EXPECT_GT(boot.ci.Width(), 0.0);
  // The percentile interval should bracket the point estimate (up to
  // bootstrap skew; allow a tiny tolerance).
  EXPECT_LE(boot.ci.lo, boot.estimate + 1.0);
  EXPECT_GE(boot.ci.hi, boot.estimate - 1.0);
}

TEST_F(BootstrapTest, MedianIntervalCoversTruthOnSymmetricData) {
  // The §10 pass-through argument (zero-median noise preserves the
  // median) holds when the data's distribution is roughly symmetric
  // around its median; on heavily skewed marginals the private median
  // shifts toward the heavy tail. Use symmetric data here.
  Schema s = *Schema::Make({Field::Discrete("d"),
                            Field::Numerical("x", ValueType::kDouble)});
  TableBuilder b(s);
  Rng data_rng(42);
  for (int i = 0; i < 600; ++i) {
    b.Row({Value(std::string("v").append(std::to_string(i % 5))),
           Value(50.0 + data_rng.Gaussian(0.0, 8.0))});
  }
  Table symmetric = *b.Finish();
  AggregateQuery median{AggregateType::kMedian, "x", std::nullopt, 50.0};
  double truth = *ExecuteAggregate(symmetric, median);
  int covered = 0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    Rng rng(100 + t);
    PrivateTable pt = *PrivateTable::Create(
        symmetric, GrrParams::Uniform(0.1, 3.0), GrrOptions{}, rng);
    QueryResult boot = *Bootstrap(pt, median, 200 + t, 150);
    if (boot.ci.Contains(truth)) ++covered;
  }
  // The bootstrap interval reflects sampling noise around the *private*
  // median, which is a consistent but noisy estimate of the true median;
  // expect majority coverage rather than exact nominal coverage.
  EXPECT_GE(covered, trials / 2);
}

TEST_F(BootstrapTest, StdIntervalNearTruth) {
  AggregateQuery stddev{AggregateType::kStd, "value", std::nullopt, 50.0};
  double truth = *ExecuteAggregate(*data_, stddev);
  QueryResult boot = *Bootstrap(*pt_, stddev, 5, 150);
  // Noise-corrected std should be in the right ballpark and the interval
  // should have sane width.
  EXPECT_NEAR(boot.estimate, truth, 0.4 * truth);
  EXPECT_LT(boot.ci.Width(), truth);
}

TEST_F(BootstrapTest, RejectsBadArguments) {
  AggregateQuery median{AggregateType::kMedian, "value", std::nullopt,
                        50.0};
  auto too_few = Bootstrap(*pt_, median, 6, 5);
  ASSERT_FALSE(too_few.ok());
  EXPECT_TRUE(too_few.status().IsInvalidArgument());
  EXPECT_NE(too_few.status().message().find(">= 10"), std::string::npos);
  EXPECT_FALSE(Bootstrap(*pt_, median, 6, 100, 0.0).ok());
  EXPECT_FALSE(Bootstrap(*pt_, median, 6, 100, 1.0).ok());
  // The bootstrap configures the extension route only: a SUM is the
  // corrected scalar route and carries no replicates.
  QueryResult sum = *Bootstrap(*pt_, AggregateQuery::Sum("value"), 6, 100);
  EXPECT_EQ(sum.replicates_requested, 0u);
}

TEST_F(BootstrapTest, DeterministicGivenSeed) {
  AggregateQuery median{AggregateType::kMedian, "value", std::nullopt,
                        50.0};
  QueryResult a = *Bootstrap(*pt_, median, 7, 50);
  QueryResult b = *Bootstrap(*pt_, median, 7, 50);
  EXPECT_DOUBLE_EQ(a.ci.lo, b.ci.lo);
  EXPECT_DOUBLE_EQ(a.ci.hi, b.ci.hi);
}

TEST_F(BootstrapTest, ParallelMatchesSerial) {
  AggregateQuery median{AggregateType::kMedian, "value", std::nullopt,
                        50.0};
  ExecutionOptions four_threads;
  four_threads.num_threads = 4;
  QueryResult serial = *Bootstrap(*pt_, median, 8, 50, 0.95, {});
  QueryResult parallel = *Bootstrap(*pt_, median, 8, 50, 0.95, four_threads);
  EXPECT_EQ(serial.estimate, parallel.estimate);
  EXPECT_EQ(serial.ci.lo, parallel.ci.lo);
  EXPECT_EQ(serial.ci.hi, parallel.ci.hi);
  EXPECT_EQ(serial.replicates_effective, parallel.replicates_effective);
}

TEST_F(BootstrapTest, RecordsReplicateCounts) {
  AggregateQuery median{AggregateType::kMedian, "value", std::nullopt,
                        50.0};
  QueryResult boot = *Bootstrap(*pt_, median, 9, 60);
  EXPECT_EQ(boot.replicates_requested, 60u);
  // No predicate, 600 rows: every resample is non-degenerate.
  EXPECT_EQ(boot.replicates_effective, 60u);
}

TEST_F(BootstrapTest, DegenerateReplicatesReduceEffectiveCount) {
  // A two-row rare category makes ≈ e^-2 of resamples match zero rows;
  // those replicates fail inside the aggregate and are dropped, and the
  // result must say so.
  Schema s = *Schema::Make({Field::Discrete("category"),
                            Field::Numerical("value", ValueType::kDouble)});
  TableBuilder b(s);
  Rng data_rng(44);
  for (int i = 0; i < 1000; ++i) {
    Value category = (i == 17 || i == 801) ? Value("rare") : Value("common");
    b.Row({category, Value(data_rng.UniformRealRange(0.0, 100.0))});
  }
  Table t = *b.Finish();
  PrivateRelationMetadata meta;
  meta.discrete.emplace(
      "category",
      DiscreteAttributeMeta{0.1, *Domain::FromColumn(t, "category"),
                            nullptr});
  meta.numeric.emplace("value", NumericAttributeMeta{2.0, 100.0});
  PrivateTable pt = *PrivateTable::FromPrivateRelation(t.Clone(), meta);
  AggregateQuery median{AggregateType::kMedian, "value",
                        Predicate::Equals("category", Value("rare")), 50.0};
  QueryResult boot = *Bootstrap(pt, median, 10, 100);
  EXPECT_EQ(boot.replicates_requested, 100u);
  EXPECT_LT(boot.replicates_effective, boot.replicates_requested);
  // Guard: at least half (round-up for odd counts) must have succeeded
  // for the call to return OK at all.
  EXPECT_GE(2 * boot.replicates_effective, boot.replicates_requested);
}

TEST_F(BootstrapTest, FailsWhenMostReplicatesDegenerate) {
  // Var needs at least two matching rows per resample. With exactly one
  // matching source row, a resample succeeds only when it draws that row
  // twice or more — P ≈ 1 - 2e^-1 ≈ 26% — so well under half of the
  // replicates survive and the call must fail loudly.
  Schema s = *Schema::Make({Field::Discrete("category"),
                            Field::Numerical("value", ValueType::kDouble)});
  TableBuilder b(s);
  Rng data_rng(45);
  for (int i = 0; i < 200; ++i) {
    Value category = (i == 50) ? Value("rare") : Value("common");
    b.Row({category, Value(data_rng.UniformRealRange(0.0, 100.0))});
  }
  Table t = *b.Finish();
  PrivateRelationMetadata meta;
  meta.discrete.emplace(
      "category",
      DiscreteAttributeMeta{0.1, *Domain::FromColumn(t, "category"),
                            nullptr});
  meta.numeric.emplace("value", NumericAttributeMeta{2.0, 100.0});
  PrivateTable pt = *PrivateTable::FromPrivateRelation(t.Clone(), meta);
  AggregateQuery var{AggregateType::kVar, "value",
                     Predicate::Equals("category", Value("rare")), 50.0};
  auto r = Bootstrap(pt, var, 11, 51);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST_F(BootstrapTest, UnknownAttributeIsTypedError) {
  AggregateQuery median{AggregateType::kMedian, "no_such_column",
                        std::nullopt, 50.0};
  auto direct = pt_->Execute(median);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInvalidArgument());
  auto boot = Bootstrap(*pt_, median, 12, 50);
  ASSERT_FALSE(boot.ok());
  EXPECT_TRUE(boot.status().IsInvalidArgument());
}

TEST_F(BootstrapTest, UnNoisedNumericColumnUsesZeroNoiseScale) {
  // A numeric column covered by metadata with b = 0 is a documented
  // pass-through: the extended aggregate applies no correction but the
  // query still runs.
  Schema s = *Schema::Make({Field::Discrete("d"),
                            Field::Numerical("x", ValueType::kDouble)});
  TableBuilder b(s);
  Rng data_rng(46);
  for (int i = 0; i < 100; ++i) {
    b.Row({Value("v"), Value(data_rng.UniformRealRange(0.0, 10.0))});
  }
  Table t = *b.Finish();
  PrivateRelationMetadata meta;
  meta.discrete.emplace(
      "d", DiscreteAttributeMeta{0.2, *Domain::FromColumn(t, "d"), nullptr});
  meta.numeric.emplace("x", NumericAttributeMeta{0.0, 10.0});
  PrivateTable pt = *PrivateTable::FromPrivateRelation(t.Clone(), meta);
  AggregateQuery var{AggregateType::kVar, "x", std::nullopt, 50.0};
  double corrected = pt.Execute(var)->estimate;
  double nominal = *ExecuteAggregate(t, var);
  // b = 0 ⇒ the 2b² variance correction vanishes.
  EXPECT_DOUBLE_EQ(corrected, nominal);
}

}  // namespace
}  // namespace privateclean
