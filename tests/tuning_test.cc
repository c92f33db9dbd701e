#include "privacy/tuning.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/statistics.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

Table TestTable(size_t rows = 1000) {
  Schema s = *Schema::Make({Field::Discrete("d"),
                            Field::Numerical("x", ValueType::kDouble)});
  TableBuilder b(s);
  for (size_t i = 0; i < rows; ++i) {
    b.Row({Value(std::string("v").append(std::to_string(i % 20))),
           Value(static_cast<double>(i % 101))});  // Range [0, 100].
  }
  return *b.Finish();
}

TEST(CountErrorBoundTest, Equation4) {
  // error < z/(1-p) * sqrt(1/(4S)).
  double z = *ZScoreForConfidence(0.95);
  EXPECT_NEAR(*CountErrorBound(0.5, 1000), z / 0.5 * std::sqrt(1.0 / 4000.0),
              1e-12);
}

TEST(CountErrorBoundTest, GrowsWithPrivacy) {
  double prev = *CountErrorBound(0.0, 1000);
  for (double p : {0.2, 0.5, 0.8, 0.95}) {
    double bound = *CountErrorBound(p, 1000);
    EXPECT_GT(bound, prev);
    prev = bound;
  }
}

TEST(CountErrorBoundTest, ShrinksWithData) {
  EXPECT_LT(*CountErrorBound(0.1, 100000), *CountErrorBound(0.1, 100));
}

TEST(CountErrorBoundTest, RejectsBadInputs) {
  EXPECT_FALSE(CountErrorBound(1.0, 1000).ok());
  EXPECT_FALSE(CountErrorBound(-0.1, 1000).ok());
  EXPECT_FALSE(CountErrorBound(0.1, 0).ok());
}

TEST(SumErrorBoundTest, Equation6) {
  double z = *ZScoreForConfidence(0.95);
  double mean = 50.0, var = 100.0, b = 10.0;
  size_t s = 1000;
  double expected =
      z / (1.0 - 0.1) *
      std::sqrt(mean / s + 4.0 * (var + 2.0 * b * b) / s);
  EXPECT_NEAR(*SumErrorBound(0.1, b, mean, var, s), expected, 1e-12);
}

TEST(SumErrorBoundTest, GrowsWithNoise) {
  EXPECT_GT(*SumErrorBound(0.1, 50.0, 10.0, 100.0, 1000),
            *SumErrorBound(0.1, 1.0, 10.0, 100.0, 1000));
}

TEST(SumErrorBoundTest, RejectsBadInputs) {
  EXPECT_FALSE(SumErrorBound(1.0, 1.0, 0.0, 1.0, 10).ok());
  EXPECT_FALSE(SumErrorBound(0.1, -1.0, 0.0, 1.0, 10).ok());
  EXPECT_FALSE(SumErrorBound(0.1, 1.0, 0.0, -1.0, 10).ok());
  EXPECT_FALSE(SumErrorBound(0.1, 1.0, 0.0, 1.0, 0).ok());
}

TEST(TuningTest, AppendixEStep1) {
  Table t = TestTable(1000);
  TuningResult tuning = *TunePrivacyParameters(t, 0.1, 0.95);
  double z = *ZScoreForConfidence(0.95);
  double expected_p = 1.0 - z * std::sqrt(1.0 / (4.0 * 1000.0 * 0.01));
  EXPECT_NEAR(tuning.p, expected_p, 1e-12);
  EXPECT_GT(tuning.p, 0.0);
  EXPECT_LT(tuning.p, 1.0);
}

TEST(TuningTest, AchievedBoundMatchesTarget) {
  Table t = TestTable(1000);
  const double target = 0.1;
  TuningResult tuning = *TunePrivacyParameters(t, target, 0.95);
  // Plugging the tuned p back into Eq. 4 must reproduce the target.
  EXPECT_NEAR(*CountErrorBound(tuning.p, t.num_rows()), target, 1e-9);
}

TEST(TuningTest, NumericScalesEqualizeEpsilon) {
  Table t = TestTable(1000);
  TuningResult tuning = *TunePrivacyParameters(t, 0.1, 0.95);
  ASSERT_EQ(tuning.numeric_b.size(), 1u);
  double b = tuning.numeric_b.at("x");
  // epsilon_numeric = delta/b should equal epsilon_discrete = ln(3/p-2).
  double eps_discrete = std::log(3.0 / tuning.p - 2.0);
  EXPECT_NEAR(100.0 / b, eps_discrete, 1e-9);
  EXPECT_NEAR(tuning.per_attribute_epsilon, eps_discrete, 1e-12);
}

TEST(TuningTest, UnattainableTargetRejected) {
  Table t = TestTable(100);  // 1/(2*sqrt(100)) = 0.05 floor at z=1.96.
  auto r = TunePrivacyParameters(t, 0.01, 0.95);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TuningTest, LooserTargetGivesMorePrivacy) {
  Table t = TestTable(10000);
  double p_loose = TunePrivacyParameters(t, 0.2, 0.95)->p;
  double p_tight = TunePrivacyParameters(t, 0.05, 0.95)->p;
  EXPECT_GT(p_loose, p_tight);  // Larger p = more randomization.
}

TEST(TuningTest, RejectsBadInputs) {
  Table t = TestTable(100);
  EXPECT_FALSE(TunePrivacyParameters(t, 0.0, 0.95).ok());
  EXPECT_FALSE(TunePrivacyParameters(t, -0.1, 0.95).ok());
  Schema s = *Schema::Make({Field::Discrete("d")});
  Table empty = *Table::MakeEmpty(s);
  EXPECT_FALSE(TunePrivacyParameters(empty, 0.1, 0.95).ok());
}

TEST(TuningTest, ToGrrParamsWiring) {
  Table t = TestTable(1000);
  TuningResult tuning = *TunePrivacyParameters(t, 0.1, 0.95);
  GrrParams params = ToGrrParams(tuning);
  EXPECT_DOUBLE_EQ(params.default_p, tuning.p);
  EXPECT_EQ(params.numeric_b.size(), 1u);
  EXPECT_DOUBLE_EQ(params.numeric_b.at("x"), tuning.numeric_b.at("x"));
}

}  // namespace
}  // namespace privateclean
