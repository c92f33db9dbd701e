#include "privacy/laplace_mechanism.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/statistics.h"

namespace privateclean {
namespace {

TEST(LaplaceMechanismTest, ZeroScaleIsIdentity) {
  Rng rng(1);
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.5);
  c.AppendDouble(-2.5);
  ASSERT_TRUE(ApplyLaplaceMechanismShard(&c, 0.0, rng, 0, c.size()).ok());
  EXPECT_DOUBLE_EQ(c.DoubleAt(0), 1.5);
  EXPECT_DOUBLE_EQ(c.DoubleAt(1), -2.5);
}

TEST(LaplaceMechanismTest, NoiseIsZeroMeanWithCorrectVariance) {
  Rng rng(2);
  const double b = 3.0;
  const int rows = 100000;
  Column c = *Column::Make(ValueType::kDouble);
  for (int i = 0; i < rows; ++i) c.AppendDouble(10.0);
  ASSERT_TRUE(ApplyLaplaceMechanismShard(&c, b, rng, 0, c.size()).ok());
  RunningMoments m;
  for (int i = 0; i < rows; ++i) m.Add(c.DoubleAt(i));
  EXPECT_NEAR(m.Mean(), 10.0, 0.1);
  EXPECT_NEAR(m.PopulationVariance(), 2.0 * b * b, 0.5);
}

TEST(LaplaceMechanismTest, NullsStayNull) {
  Rng rng(3);
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.0);
  c.AppendNull();
  ASSERT_TRUE(ApplyLaplaceMechanismShard(&c, 5.0, rng, 0, c.size()).ok());
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
}

TEST(LaplaceMechanismTest, Int64ColumnsRoundNoise) {
  Rng rng(4);
  const int rows = 50000;
  Column c = *Column::Make(ValueType::kInt64);
  for (int i = 0; i < rows; ++i) c.AppendInt64(100);
  ASSERT_TRUE(ApplyLaplaceMechanismShard(&c, 4.0, rng, 0, c.size()).ok());
  RunningMoments m;
  bool changed = false;
  for (int i = 0; i < rows; ++i) {
    m.Add(static_cast<double>(c.Int64At(i)));
    changed |= c.Int64At(i) != 100;
  }
  EXPECT_TRUE(changed);
  // Rounded Laplace noise is still zero-mean by symmetry.
  EXPECT_NEAR(m.Mean(), 100.0, 0.2);
}

TEST(LaplaceMechanismTest, RejectsStringColumn) {
  Rng rng(5);
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("x");
  EXPECT_TRUE(ApplyLaplaceMechanismShard(&c, 1.0, rng, 0, c.size()).IsInvalidArgument());
}

TEST(LaplaceMechanismTest, RejectsNegativeScaleAndNullColumn) {
  Rng rng(6);
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.0);
  EXPECT_TRUE(ApplyLaplaceMechanismShard(&c, -1.0, rng, 0, c.size()).IsInvalidArgument());
  EXPECT_TRUE(ApplyLaplaceMechanismShard(nullptr, 1.0, rng, 0, 0).IsInvalidArgument());
}

TEST(ColumnSensitivityTest, MaxMinusMin) {
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(3.0);
  c.AppendDouble(-2.0);
  c.AppendNull();
  c.AppendDouble(7.5);
  EXPECT_DOUBLE_EQ(*ColumnSensitivity(c), 9.5);
}

TEST(ColumnSensitivityTest, SingleValueIsZero) {
  Column c = *Column::Make(ValueType::kInt64);
  c.AppendInt64(5);
  EXPECT_DOUBLE_EQ(*ColumnSensitivity(c), 0.0);
}

TEST(ColumnSensitivityTest, AllNullFails) {
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendNull();
  auto r = ColumnSensitivity(c);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST(ColumnSensitivityTest, RejectsStringColumn) {
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("x");
  EXPECT_FALSE(ColumnSensitivity(c).ok());
}

}  // namespace
}  // namespace privateclean
