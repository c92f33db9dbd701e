// Property-based sweeps over the estimator parameter space: for every
// combination of (p, N, z, selectivity) the PrivateClean estimators must
// be (a) approximately unbiased across random private instances, and
// (b) deliver at least nominal confidence-interval coverage.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/statistics.h"
#include "core/privateclean.h"
#include "datagen/synthetic.h"

namespace privateclean {
namespace {

struct SweepParams {
  double p;
  size_t num_distinct;
  double zipf_skew;
  size_t predicate_values;  // l' (clean distinct values selected).
};

std::string ParamName(const ::testing::TestParamInfo<SweepParams>& info) {
  const SweepParams& sp = info.param;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%02d_N%zu_z%02d_l%zu",
                static_cast<int>(sp.p * 100), sp.num_distinct,
                static_cast<int>(sp.zipf_skew * 10), sp.predicate_values);
  return buf;
}

class EstimatorSweepTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(EstimatorSweepTest, CountIsApproximatelyUnbiased) {
  const SweepParams& sp = GetParam();
  SyntheticOptions options;
  options.num_rows = 1200;
  options.num_distinct = sp.num_distinct;
  options.zipf_skew = sp.zipf_skew;
  Rng data_rng(1234);
  Table data = *GenerateSynthetic(options, data_rng);

  Rng query_rng(99);
  std::vector<Value> pred_values = PickPredicateCategories(
      sp.num_distinct, sp.predicate_values, /*mode=*/2, query_rng);
  Predicate pred = Predicate::In("category", pred_values);
  double truth = *ExecuteAggregate(data, AggregateQuery::Count(pred));

  const int trials = 30;
  RunningMoments estimates;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rng(5000 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(sp.p, 5.0), GrrOptions{}, rng);
    QueryResult r = *pt.Execute(AggregateQuery::Count(pred));
    estimates.Add(r.estimate);
    if (r.ci.Contains(truth)) ++covered;
  }
  // Unbiasedness: the mean estimate is within 4 standard errors of truth.
  double se = std::sqrt(estimates.SampleVariance() / trials);
  EXPECT_NEAR(estimates.Mean(), truth, std::max(4.0 * se, 2.0))
      << "truth=" << truth;
  // Coverage: at least ~nominal (30 trials, allow Monte-Carlo slack).
  EXPECT_GE(covered, static_cast<int>(trials * 0.8));
}

TEST_P(EstimatorSweepTest, SumIsApproximatelyUnbiased) {
  const SweepParams& sp = GetParam();
  SyntheticOptions options;
  options.num_rows = 1200;
  options.num_distinct = sp.num_distinct;
  options.zipf_skew = sp.zipf_skew;
  options.correlated = true;  // The harder regime for sum (§5.5).
  Rng data_rng(4321);
  Table data = *GenerateSynthetic(options, data_rng);

  Rng query_rng(7);
  std::vector<Value> pred_values = PickPredicateCategories(
      sp.num_distinct, sp.predicate_values, /*mode=*/2, query_rng);
  Predicate pred = Predicate::In("category", pred_values);
  double truth = *ExecuteAggregate(data, AggregateQuery::Sum("value", pred));
  if (std::abs(truth) < 100.0) {
    GTEST_SKIP() << "degenerate query (truth too small for relative test)";
  }

  const int trials = 30;
  RunningMoments estimates;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rng(6000 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(sp.p, 5.0), GrrOptions{}, rng);
    QueryResult r = *pt.Execute(AggregateQuery::Sum("value", pred));
    estimates.Add(r.estimate);
    if (r.ci.Contains(truth)) ++covered;
  }
  double se = std::sqrt(estimates.SampleVariance() / trials);
  EXPECT_NEAR(estimates.Mean(), truth,
              std::max(4.0 * se, 0.02 * std::abs(truth)));
  EXPECT_GE(covered, static_cast<int>(trials * 0.8));
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, EstimatorSweepTest,
    ::testing::Values(
        SweepParams{0.05, 50, 2.0, 5},   // Paper defaults, low privacy.
        SweepParams{0.10, 50, 2.0, 5},   // Paper defaults.
        SweepParams{0.30, 50, 2.0, 5},   // High privacy.
        SweepParams{0.50, 50, 2.0, 5},   // Very high privacy.
        SweepParams{0.10, 10, 2.0, 2},   // Small domain.
        SweepParams{0.10, 200, 2.0, 20}, // Large domain.
        SweepParams{0.10, 50, 0.0, 5},   // Uniform data (no skew).
        SweepParams{0.10, 50, 3.0, 5},   // Extreme skew.
        SweepParams{0.10, 50, 2.0, 1},   // Point predicate.
        SweepParams{0.10, 50, 2.0, 25},  // Half the domain.
        SweepParams{0.10, 50, 2.0, 45}), // Nearly everything.
    ParamName);

// After cleaning, the corrected estimator must still be unbiased: merge a
// fraction of the domain and compare against the cleaned ground truth.
class CleanedEstimatorSweepTest
    : public ::testing::TestWithParam<SweepParams> {};

TEST_P(CleanedEstimatorSweepTest, CountUnbiasedAfterMerging) {
  const SweepParams& sp = GetParam();
  SyntheticOptions options;
  options.num_rows = 1200;
  options.num_distinct = sp.num_distinct;
  options.zipf_skew = sp.zipf_skew;
  Rng data_rng(777);
  Table dirty = *GenerateSynthetic(options, data_rng);

  // Cleaning merges pairs (c1->c0, c3->c2, ...), covering 2*l' values.
  std::unordered_map<Value, Value, ValueHash> merges;
  for (size_t k = 0; k + 1 < 2 * sp.predicate_values &&
                     k + 1 < sp.num_distinct;
       k += 2) {
    merges.emplace(SyntheticCategory(k + 1), SyntheticCategory(k));
  }
  Table clean_truth = dirty.Clone();
  ASSERT_TRUE(FindReplace("category", merges).Apply(&clean_truth).ok());

  // Predicate over the merged canonical values.
  std::vector<Value> pred_values;
  for (size_t k = 0; k < 2 * sp.predicate_values && k < sp.num_distinct;
       k += 2) {
    pred_values.push_back(SyntheticCategory(k));
  }
  Predicate pred = Predicate::In("category", pred_values);
  double truth =
      *ExecuteAggregate(clean_truth, AggregateQuery::Count(pred));

  const int trials = 30;
  RunningMoments estimates;
  for (int t = 0; t < trials; ++t) {
    Rng rng(9000 + t);
    PrivateTable pt = *PrivateTable::Create(
        dirty, GrrParams::Uniform(sp.p, 5.0), GrrOptions{}, rng);
    ASSERT_TRUE(pt.Clean(FindReplace("category", merges)).ok());
    estimates.Add(pt.Execute(AggregateQuery::Count(pred))->estimate);
  }
  double se = std::sqrt(estimates.SampleVariance() / trials);
  EXPECT_NEAR(estimates.Mean(), truth, std::max(4.0 * se, 2.0));
}

INSTANTIATE_TEST_SUITE_P(
    MergeGrid, CleanedEstimatorSweepTest,
    ::testing::Values(SweepParams{0.10, 50, 2.0, 5},
                      SweepParams{0.30, 50, 2.0, 5},
                      SweepParams{0.10, 20, 1.0, 4},
                      SweepParams{0.20, 100, 2.0, 10}),
    ParamName);

}  // namespace
}  // namespace privateclean
