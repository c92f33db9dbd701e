#include "privacy/size_bound.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "privacy/randomized_response.h"
#include "randomize_column.h"
#include "table/domain.h"

namespace privateclean {
namespace {

TEST(DomainPreservationTest, LargeDatasetNearCertain) {
  EXPECT_GT(*DomainPreservationLowerBound(10, 0.1, 100000), 0.9999);
}

TEST(DomainPreservationTest, TinyDatasetUncertain) {
  EXPECT_LT(*DomainPreservationLowerBound(50, 0.5, 60), 0.5);
}

TEST(DomainPreservationTest, MonotoneInDatasetSize) {
  double prev = 0.0;
  for (size_t s : {100u, 500u, 1000u, 5000u, 20000u}) {
    double bound = *DomainPreservationLowerBound(25, 0.25, s);
    EXPECT_GE(bound, prev);
    prev = bound;
  }
}

TEST(DomainPreservationTest, ZeroPAlwaysPreserves) {
  EXPECT_DOUBLE_EQ(*DomainPreservationLowerBound(50, 0.0, 10), 1.0);
}

TEST(DomainPreservationTest, SingletonDomainAlwaysPreserved) {
  EXPECT_DOUBLE_EQ(*DomainPreservationLowerBound(1, 1.0, 5), 1.0);
}

TEST(DomainPreservationTest, RejectsBadInputs) {
  EXPECT_FALSE(DomainPreservationLowerBound(0, 0.1, 10).ok());
  EXPECT_FALSE(DomainPreservationLowerBound(10, -0.1, 10).ok());
  EXPECT_FALSE(DomainPreservationLowerBound(10, 1.1, 10).ok());
  EXPECT_FALSE(DomainPreservationLowerBound(10, 0.1, 0).ok());
}

TEST(MinSizeTest, Theorem2ClosedForm) {
  // S > (N/p) ln(pN/alpha); N=25, p=0.25, alpha=0.05:
  // (100)·ln(6.25/0.05) = 100·ln(125) ≈ 482.9 -> 483.
  EXPECT_EQ(*MinDatasetSizeForDomainPreservation(25, 0.25, 0.05),
            static_cast<size_t>(std::ceil(100.0 * std::log(125.0))));
}

TEST(MinSizeTest, TighterConfidenceNeedsMoreData) {
  size_t s95 = *MinDatasetSizeForDomainPreservation(25, 0.25, 0.05);
  size_t s99 = *MinDatasetSizeForDomainPreservation(25, 0.25, 0.01);
  EXPECT_GT(s99, s95);
  // The gap is (N/p)·ln(5) ≈ 161, matching the paper's Example 3 deltas.
  EXPECT_NEAR(static_cast<double>(s99 - s95), 100.0 * std::log(5.0), 2.0);
}

TEST(MinSizeTest, MorePrivacyNeedsMoreDataAtFixedLogTerm) {
  // Larger N (more distinct values) needs more data.
  EXPECT_GT(*MinDatasetSizeForDomainPreservation(100, 0.25, 0.05),
            *MinDatasetSizeForDomainPreservation(25, 0.25, 0.05));
}

TEST(MinSizeTest, TrivialWhenLogTermNonPositive) {
  // pN <= alpha: the domain is trivially safe.
  EXPECT_EQ(*MinDatasetSizeForDomainPreservation(1, 0.01, 0.5), 1u);
}

TEST(MinSizeTest, RejectsBadInputs) {
  EXPECT_FALSE(MinDatasetSizeForDomainPreservation(10, 0.0, 0.05).ok());
  EXPECT_FALSE(MinDatasetSizeForDomainPreservation(10, 0.1, 0.0).ok());
  EXPECT_FALSE(MinDatasetSizeForDomainPreservation(10, 0.1, 1.0).ok());
}

TEST(MinSizeExactTest, SatisfiesTheBoundItInverts) {
  for (size_t n : {5u, 25u, 100u}) {
    for (double p : {0.1, 0.25, 0.5}) {
      for (double alpha : {0.05, 0.01}) {
        size_t s = *MinDatasetSizeExact(n, p, alpha);
        double preserve = *DomainPreservationLowerBound(n, p, s);
        EXPECT_GE(preserve, 1.0 - alpha - 1e-9)
            << "n=" << n << " p=" << p << " alpha=" << alpha;
        // One fewer row should (approximately) not satisfy it.
        if (s > 2) {
          double before = *DomainPreservationLowerBound(n, p, s - 2);
          EXPECT_LT(before, 1.0 - alpha + 1e-9);
        }
      }
    }
  }
}

TEST(MinSizeExactTest, ClosedFormIsLooserOrEqual) {
  // The Theorem 2 closed form uses log(1-x) <= -x, so it requires at
  // least as much data as the exact inversion.
  for (size_t n : {10u, 25u, 50u}) {
    EXPECT_GE(*MinDatasetSizeForDomainPreservation(n, 0.25, 0.05),
              *MinDatasetSizeExact(n, 0.25, 0.05));
  }
}

TEST(MinSizeExactTest, SingletonDomain) {
  EXPECT_EQ(*MinDatasetSizeExact(1, 0.5, 0.05), 1u);
}

TEST(ExpectedRegenerationsTest, MatchesInverseBound) {
  double preserve = *DomainPreservationLowerBound(25, 0.25, 1000);
  EXPECT_NEAR(*ExpectedRegenerations(25, 0.25, 1000), 1.0 / preserve,
              1e-12);
}

TEST(ExpectedRegenerationsTest, ApproachesOneForLargeData) {
  EXPECT_NEAR(*ExpectedRegenerations(10, 0.1, 1000000), 1.0, 1e-6);
}

TEST(DomainPreservationTest, EmpiricalRateRespectsBound) {
  // Monte-Carlo: the analytic lower bound must underestimate the true
  // preservation rate.
  const size_t n = 10, s = 300;
  const double p = 0.5;
  std::vector<Value> values;
  for (size_t i = 0; i < s; ++i) {
    values.emplace_back(std::string("v").append(std::to_string(i % n)));
  }
  Domain domain = Domain::FromValues(values);
  Rng rng(77);
  int preserved = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    Column c = *Column::Make(ValueType::kString);
    for (const Value& v : values) {
      Status st = c.AppendValue(v);
      ASSERT_TRUE(st.ok());
    }
    ASSERT_TRUE(RandomizeColumn(&c, domain, p, rng).ok());
    std::vector<Value> out;
    for (size_t r = 0; r < c.size(); ++r) out.push_back(c.ValueAt(r));
    if (Domain::FromValues(out).size() == n) ++preserved;
  }
  double empirical = static_cast<double>(preserved) / trials;
  double bound = *DomainPreservationLowerBound(n, p, s);
  EXPECT_GE(empirical + 0.05, bound);  // 5% Monte-Carlo slack.
}

}  // namespace
}  // namespace privateclean
