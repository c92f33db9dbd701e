#include "privacy/allocation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/private_table.h"
#include "privacy/accountant.h"
#include "privacy/grr.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

Table TestTable() {
  Schema s = *Schema::Make({Field::Discrete("d1"), Field::Discrete("d2"),
                            Field::Numerical("x", ValueType::kDouble)});
  TableBuilder b(s);
  for (int i = 0; i < 100; ++i) {
    b.Row({Value(std::string("a").append(std::to_string(i % 4))),
           Value(std::string("b").append(std::to_string(i % 3))),
           Value(static_cast<double>(i % 11))});  // Sensitivity 10.
  }
  return *b.Finish();
}

TEST(AllocationTest, UniformSplitAchievesBudget) {
  Table t = TestTable();
  const double budget = 3.0;
  GrrParams params = *AllocateEpsilonBudget(t, budget);
  // Each of the 3 attributes gets epsilon = 1.
  double p = params.discrete_p.at("d1");
  EXPECT_NEAR(p, 3.0 / (std::exp(1.0) + 2.0), 1e-12);
  EXPECT_DOUBLE_EQ(params.discrete_p.at("d1"),
                   params.discrete_p.at("d2"));
  EXPECT_NEAR(params.numeric_b.at("x"), 10.0 / 1.0, 1e-12);

  // End to end: the accountant reports exactly the budget.
  Rng rng(5);
  GrrOutput out = *ApplyGrr(t, params, GrrOptions{}, rng);
  PrivacyReport report = *AccountPrivacy(out.metadata);
  EXPECT_NEAR(report.total_epsilon, budget, 1e-9);
  EXPECT_TRUE(report.fully_private);
}

TEST(AllocationTest, WeightsSkewTheSplit) {
  Table t = TestTable();
  // d1 gets half the share of the others: weights {0.5, 1, 1}.
  GrrParams params =
      *AllocateEpsilonBudget(t, 5.0, {{"d1", 0.5}});
  // Shares: d1 = 5*0.5/2.5 = 1, d2 = 2, x = 2.
  EXPECT_NEAR(params.discrete_p.at("d1"), 3.0 / (std::exp(1.0) + 2.0),
              1e-12);
  EXPECT_NEAR(params.discrete_p.at("d2"), 3.0 / (std::exp(2.0) + 2.0),
              1e-12);
  EXPECT_NEAR(params.numeric_b.at("x"), 10.0 / 2.0, 1e-12);
  // Smaller epsilon -> more randomization for d1.
  EXPECT_GT(params.discrete_p.at("d1"), params.discrete_p.at("d2"));
}

TEST(AllocationTest, WeightedBudgetStillComposesToTotal) {
  Table t = TestTable();
  GrrParams params =
      *AllocateEpsilonBudget(t, 4.0, {{"x", 2.0}, {"d2", 0.25}});
  Rng rng(6);
  GrrOutput out = *ApplyGrr(t, params, GrrOptions{}, rng);
  EXPECT_NEAR(AccountPrivacy(out.metadata)->total_epsilon, 4.0, 1e-9);
}

TEST(AllocationTest, ConstantNumericColumnGetsZeroNoise) {
  Schema s = *Schema::Make({Field::Discrete("d"),
                            Field::Numerical("c", ValueType::kDouble)});
  TableBuilder b(s);
  for (int i = 0; i < 10; ++i) b.Row({Value("v"), Value(7.0)});
  Table t = *b.Finish();
  GrrParams params = *AllocateEpsilonBudget(t, 2.0);
  EXPECT_DOUBLE_EQ(params.numeric_b.at("c"), 0.0);
}

TEST(AllocationTest, RejectsBadInputs) {
  Table t = TestTable();
  EXPECT_FALSE(AllocateEpsilonBudget(t, 0.0).ok());
  EXPECT_FALSE(AllocateEpsilonBudget(t, -1.0).ok());
  EXPECT_TRUE(AllocateEpsilonBudget(t, 1.0, {{"nope", 1.0}})
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(AllocateEpsilonBudget(t, 1.0, {{"d1", 0.0}}).ok());
  EXPECT_FALSE(AllocateEpsilonBudget(t, 1.0, {{"d1", -2.0}}).ok());
  Schema empty_schema = *Schema::Make({});
  Table empty = *Table::MakeEmpty(empty_schema);
  EXPECT_FALSE(AllocateEpsilonBudget(empty, 1.0).ok());
}

TEST(AllocationTest, MoreBudgetMeansLessRandomization) {
  Table t = TestTable();
  GrrParams small = *AllocateEpsilonBudget(t, 0.3);
  GrrParams large = *AllocateEpsilonBudget(t, 30.0);
  EXPECT_GT(small.discrete_p.at("d1"), large.discrete_p.at("d1"));
  EXPECT_GT(small.numeric_b.at("x"), large.numeric_b.at("x"));
}

TEST(AllocationTest, PrivateTableFactoryWiring) {
  Table t = TestTable();
  Rng rng(7);
  PrivateTable pt = *PrivateTable::CreateWithEpsilonBudget(t, 6.0, rng);
  EXPECT_NEAR(pt.PrivacyAccounting()->total_epsilon, 6.0, 1e-9);
  EXPECT_EQ(pt.size(), 100u);
}

}  // namespace
}  // namespace privateclean
