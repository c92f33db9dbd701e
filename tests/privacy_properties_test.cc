// Statistical property tests for the privacy mechanisms themselves:
// empirical verification of the local-differential-privacy likelihood
// ratios (Lemma 1), the randomized-response transition matrix, the
// Laplace mechanism's epsilon, and the Theorem 2 domain-preservation
// frequency, swept over the parameter grid with TEST_P.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/statistics.h"
#include "privacy/privacy_params.h"
#include "privacy/randomized_response.h"
#include "randomize_column.h"
#include "privacy/size_bound.h"
#include "table/domain.h"

namespace privateclean {
namespace {

class RrPrivacyTest : public ::testing::TestWithParam<double> {};

TEST_P(RrPrivacyTest, EmpiricalLikelihoodRatioRespectsLemma1) {
  // Lemma 1's worst case: domain of two values. Measure
  // P[obs = a | true = x] empirically for both inputs and check the
  // worst ratio against exp(eps) with Monte-Carlo slack.
  const double p = GetParam();
  Domain domain = Domain::FromValues({Value("a"), Value("b")});
  Rng rng(101);
  const int trials = 200000;
  int obs_a_given_a = 0, obs_a_given_b = 0;
  for (int t = 0; t < trials; ++t) {
    Column col = *Column::Make(ValueType::kString);
    col.AppendString("a");
    col.AppendString("b");
    ASSERT_TRUE(RandomizeColumn(&col, domain, p, rng).ok());
    if (col.StringAt(0) == "a") ++obs_a_given_a;
    if (col.StringAt(1) == "a") ++obs_a_given_b;
  }
  double p_a_a = static_cast<double>(obs_a_given_a) / trials;
  double p_a_b = static_cast<double>(obs_a_given_b) / trials;
  ASSERT_GT(p_a_b, 0.0);
  double ratio = p_a_a / p_a_b;
  // Analytic ratio for N=2: (1 - p + p/2) / (p/2) = 2/p - 1, which is
  // <= exp(eps) = 3/p - 2 for p <= 1.
  double analytic = 2.0 / p - 1.0;
  EXPECT_NEAR(ratio, analytic, 0.15 * analytic);
  double eps = *EpsilonForRandomizedResponse(p);
  EXPECT_LE(ratio, std::exp(eps) * 1.15);
}

INSTANTIATE_TEST_SUITE_P(Ps, RrPrivacyTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return std::string("p").append(std::to_string(
                               static_cast<int>(info.param * 100)));
                         });

struct TransitionCase {
  double p;
  size_t l;
  size_t n;
};

class TransitionMatrixTest
    : public ::testing::TestWithParam<TransitionCase> {};

TEST_P(TransitionMatrixTest, EmpiricalRatesMatchFormulas) {
  const TransitionCase& tc = GetParam();
  // Domain {v0..v_{n-1}}; predicate selects the first l values.
  std::vector<Value> values;
  for (size_t k = 0; k < tc.n; ++k) {
    values.emplace_back(std::string("v").append(std::to_string(k)));
  }
  Domain domain = Domain::FromValues(values);
  auto in_pred = [&](const Value& v) {
    for (size_t k = 0; k < tc.l; ++k) {
      if (v == values[k]) return true;
    }
    return false;
  };

  Rng rng(202);
  const int rows = 60000;
  // Half the rows start inside the predicate, half outside.
  Column col = *Column::Make(ValueType::kString);
  std::vector<uint8_t> truly_in(rows);
  for (int r = 0; r < rows; ++r) {
    bool inside = (r % 2 == 0);
    truly_in[static_cast<size_t>(r)] = inside;
    col.AppendString(inside
                         ? values[static_cast<size_t>(r / 2) % tc.l]
                               .AsString()
                         : values[tc.l + static_cast<size_t>(r / 2) %
                                             (tc.n - tc.l)]
                               .AsString());
  }
  ASSERT_TRUE(RandomizeColumn(&col, domain, tc.p, rng).ok());

  int tp = 0, fp = 0, in_count = 0, out_count = 0;
  for (int r = 0; r < rows; ++r) {
    bool now_in = in_pred(col.ValueAt(static_cast<size_t>(r)));
    if (truly_in[static_cast<size_t>(r)]) {
      ++in_count;
      tp += now_in ? 1 : 0;
    } else {
      ++out_count;
      fp += now_in ? 1 : 0;
    }
  }
  TransitionProbabilities t = *ComputeTransitionProbabilities(
      tc.p, static_cast<double>(tc.l), static_cast<double>(tc.n));
  EXPECT_NEAR(static_cast<double>(tp) / in_count, t.true_positive, 0.012);
  EXPECT_NEAR(static_cast<double>(fp) / out_count, t.false_positive, 0.012);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TransitionMatrixTest,
    ::testing::Values(TransitionCase{0.1, 5, 50}, TransitionCase{0.5, 5, 50},
                      TransitionCase{0.25, 1, 10}, TransitionCase{0.25, 9, 10},
                      TransitionCase{0.8, 20, 100}),
    [](const ::testing::TestParamInfo<TransitionCase>& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "p%02d_l%zu_N%zu",
                    static_cast<int>(info.param.p * 100), info.param.l,
                    info.param.n);
      return std::string(buf);
    });

class LaplacePrivacyTest : public ::testing::TestWithParam<double> {};

TEST_P(LaplacePrivacyTest, EmpiricalDensityRatioRespectsEpsilon) {
  // For two inputs x, x' with |x - x'| = delta and scale b, the density
  // ratio at any output is bounded by exp(delta/b). Check via binned
  // histograms.
  const double b = GetParam();
  const double delta = 2.0;
  Rng rng(303);
  const int trials = 300000;
  const double bin_width = 1.0;
  const int num_bins = 40;  // Centered on 0.
  std::vector<int> hist_x(num_bins, 0), hist_xp(num_bins, 0);
  auto bin_of = [&](double v) {
    int bin = static_cast<int>(std::floor(v / bin_width)) + num_bins / 2;
    return bin;
  };
  for (int t = 0; t < trials; ++t) {
    int bx = bin_of(rng.Laplace(0.0, b));
    if (bx >= 0 && bx < num_bins) ++hist_x[static_cast<size_t>(bx)];
    int bxp = bin_of(rng.Laplace(delta, b));
    if (bxp >= 0 && bxp < num_bins) ++hist_xp[static_cast<size_t>(bxp)];
  }
  double eps = delta / b;
  for (int bin = 0; bin < num_bins; ++bin) {
    // Only compare well-populated bins (Monte-Carlo noise elsewhere).
    if (hist_x[static_cast<size_t>(bin)] < 2000 ||
        hist_xp[static_cast<size_t>(bin)] < 2000) {
      continue;
    }
    double ratio = static_cast<double>(hist_x[static_cast<size_t>(bin)]) /
                   hist_xp[static_cast<size_t>(bin)];
    EXPECT_LE(ratio, std::exp(eps) * 1.2) << "bin " << bin;
    EXPECT_GE(ratio, std::exp(-eps) / 1.2) << "bin " << bin;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplacePrivacyTest,
                         ::testing::Values(1.0, 2.0, 5.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return std::string("b").append(
                               std::to_string(static_cast<int>(info.param)));
                         });

struct PreservationCase {
  size_t n;
  double p;
  size_t s;
};

class DomainPreservationSweep
    : public ::testing::TestWithParam<PreservationCase> {};

TEST_P(DomainPreservationSweep, EmpiricalRateAtLeastAnalyticBound) {
  const PreservationCase& pc = GetParam();
  std::vector<Value> values;
  for (size_t i = 0; i < pc.s; ++i) {
    values.emplace_back(std::string("v").append(std::to_string(i % pc.n)));
  }
  Domain domain = Domain::FromValues(values);
  ASSERT_EQ(domain.size(), pc.n);
  Rng rng(404);
  int preserved = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    Column col = *Column::Make(ValueType::kString);
    for (const Value& v : values) ASSERT_TRUE(col.AppendValue(v).ok());
    ASSERT_TRUE(RandomizeColumn(&col, domain, pc.p, rng).ok());
    std::vector<uint8_t> seen(pc.n, 0);
    size_t distinct = 0;
    for (size_t r = 0; r < col.size(); ++r) {
      size_t idx = *domain.IndexOf(col.ValueAt(r));
      if (!seen[idx]) {
        seen[idx] = 1;
        ++distinct;
      }
    }
    if (distinct == pc.n) ++preserved;
  }
  double empirical = static_cast<double>(preserved) / trials;
  double bound = *DomainPreservationLowerBound(pc.n, pc.p, pc.s);
  EXPECT_GE(empirical + 0.07, bound)
      << "n=" << pc.n << " p=" << pc.p << " s=" << pc.s;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DomainPreservationSweep,
    ::testing::Values(PreservationCase{10, 0.25, 200},
                      PreservationCase{25, 0.25, 500},
                      PreservationCase{25, 0.25, 483},  // Example 3 size.
                      PreservationCase{50, 0.5, 400},
                      PreservationCase{5, 0.9, 100}),
    [](const ::testing::TestParamInfo<PreservationCase>& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "N%zu_p%02d_S%zu", info.param.n,
                    static_cast<int>(info.param.p * 100), info.param.s);
      return std::string(buf);
    });

}  // namespace
}  // namespace privateclean
