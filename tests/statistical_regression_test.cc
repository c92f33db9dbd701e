// Statistical regression tests for the sharded randomization paths.
//
// Determinism tests (parallel_determinism_test.cc) prove thread count
// does not change the output; these tests prove the output is *right*:
// forking one RNG stream per shard must still produce the analytical GRR
// transition distribution and the analytical Laplace noise distribution.
// A broken fork (reused streams, correlated shards, wrong scale) passes
// determinism but fails here.
//
// Seeds are fixed, so every statistic below is deterministic; thresholds
// are the analytical critical values at α = 0.01, which these seeds pass
// with margin.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/statistics.h"
#include "privacy/grr.h"
#include "query/aggregate.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

// Skewed category counts: a uniform input would make the kept mass and
// the uniform-redraw mass indistinguishable per value.
const std::vector<size_t>& CategoryCounts() {
  static const std::vector<size_t> counts = {12000, 8000, 6000, 5000,
                                             4000,  3000, 1500, 500};
  return counts;
}

constexpr double kGrrP = 0.5;
constexpr double kLaplaceB = 2.0;

Table SkewedTable() {
  Schema schema = *Schema::Make({Field::Discrete("category"),
                                 Field::Numerical("value", ValueType::kDouble)});
  TableBuilder builder(schema);
  for (size_t j = 0; j < CategoryCounts().size(); ++j) {
    for (size_t k = 0; k < CategoryCounts()[j]; ++k) {
      builder.Row({Value(std::string("c").append(std::to_string(j))),
                   Value(static_cast<double>(j) * 10.0)});
    }
  }
  return *builder.Finish();
}

GrrOutput RandomizeAtThreads(const Table& input, size_t num_threads) {
  GrrOptions options;
  options.exec.num_threads = num_threads;
  Rng rng(20260805);
  return *ApplyGrr(input, GrrParams::Uniform(kGrrP, kLaplaceB), options, rng);
}

TEST(StatisticalRegressionTest, ShardedGrrMatchesTransitionDistribution) {
  // GRR transition: P(out = j | in = i) = (1-p)·1[i=j] + p/N, so
  //   E[count_out(j)] = (1-p)·count_in(j) + p·S/N.
  // Pearson chi-squared of the observed output counts against that
  // expectation, at df = N-1.
  Table input = SkewedTable();
  const size_t n_values = CategoryCounts().size();
  double s = static_cast<double>(input.num_rows());
  std::vector<double> expected;
  for (size_t j = 0; j < n_values; ++j) {
    expected.push_back((1.0 - kGrrP) * static_cast<double>(CategoryCounts()[j]) +
                       kGrrP * s / static_cast<double>(n_values));
  }
  double threshold = *ChiSquaredQuantile(n_values - 1, 0.99);
  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    GrrOutput out = RandomizeAtThreads(input, threads);
    EXPECT_EQ(out.total_regenerations, 0u);
    auto counts = *GroupByCount(out.table, "category");
    std::vector<double> observed;
    for (size_t j = 0; j < n_values; ++j) {
      const Value category(std::string("c").append(std::to_string(j)));
      observed.push_back(static_cast<double>(counts[category]));
    }
    double chi2 = *ChiSquaredStatistic(observed, expected);
    EXPECT_LT(chi2, threshold) << "chi-squared " << chi2;
  }
}

TEST(StatisticalRegressionTest, ShardedLaplaceNoiseMatchesLaplaceCdf) {
  // The numeric path adds Laplace(b) noise per row; output minus input
  // is an i.i.d. Laplace sample even when each shard draws from its own
  // forked stream. One-sample KS against the Laplace CDF; the α = 0.01
  // asymptotic critical value is 1.628/√n.
  Table input = SkewedTable();
  const Column& in_col = **input.ColumnByName("value");
  auto laplace_cdf = [](double x) {
    return x < 0.0 ? 0.5 * std::exp(x / kLaplaceB)
                   : 1.0 - 0.5 * std::exp(-x / kLaplaceB);
  };
  double n = static_cast<double>(input.num_rows());
  double threshold = 1.628 / std::sqrt(n);
  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    GrrOutput out = RandomizeAtThreads(input, threads);
    const Column& out_col = **out.table.ColumnByName("value");
    std::vector<double> noise;
    noise.reserve(input.num_rows());
    for (size_t r = 0; r < input.num_rows(); ++r) {
      noise.push_back(out_col.DoubleAt(r) - in_col.DoubleAt(r));
    }
    double d = *KolmogorovSmirnovStatistic(std::move(noise), laplace_cdf);
    EXPECT_LT(d, threshold) << "KS statistic " << d;
  }
}

TEST(StatisticalRegressionTest, ShardStreamsAreNotCorrelated) {
  // A defective fork that reuses the parent stream per shard would make
  // shard-initial noise draws identical. Check the first rows of the two
  // halves of a two-shard table differ (they are independent draws).
  Table input = SkewedTable();
  const Column& in_col = **input.ColumnByName("value");
  GrrOutput out = RandomizeAtThreads(input, 8);
  const Column& out_col = **out.table.ColumnByName("value");
  ASSERT_GT(input.num_rows(), kRowsPerShard);
  double noise_shard0 = out_col.DoubleAt(0) - in_col.DoubleAt(0);
  double noise_shard1 =
      out_col.DoubleAt(kRowsPerShard) - in_col.DoubleAt(kRowsPerShard);
  EXPECT_NE(noise_shard0, noise_shard1);
}

}  // namespace
}  // namespace privateclean
