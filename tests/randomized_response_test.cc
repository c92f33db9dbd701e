#include "privacy/randomized_response.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"
#include "randomize_column.h"

namespace privateclean {
namespace {

Column MakeColumn(const std::vector<Value>& values) {
  Column c = *Column::Make(ValueType::kString);
  for (const Value& v : values) {
    Status st = c.AppendValue(v);
    EXPECT_TRUE(st.ok());
  }
  return c;
}

TEST(RandomizedResponseTest, ZeroProbabilityIsIdentity) {
  Rng rng(1);
  Column c = MakeColumn({Value("a"), Value("b"), Value("a")});
  Domain d = Domain::FromValues({Value("a"), Value("b")});
  ASSERT_TRUE(RandomizeColumn(&c, d, 0.0, rng).ok());
  EXPECT_EQ(c.StringAt(0), "a");
  EXPECT_EQ(c.StringAt(1), "b");
  EXPECT_EQ(c.StringAt(2), "a");
}

TEST(RandomizedResponseTest, OutputStaysInDomain) {
  Rng rng(2);
  std::vector<Value> values;
  for (int i = 0; i < 500; ++i) {
    values.emplace_back(std::string("v").append(std::to_string(i % 7)));
  }
  Column c = MakeColumn(values);
  Domain d = Domain::FromValues(values);
  ASSERT_TRUE(RandomizeColumn(&c, d, 0.5, rng).ok());
  for (size_t r = 0; r < c.size(); ++r) {
    EXPECT_TRUE(d.Contains(c.ValueAt(r)));
  }
}

TEST(RandomizedResponseTest, RetentionRateMatchesTheory) {
  // A row keeps its value w.p. (1-p) + p/N.
  Rng rng(3);
  const double p = 0.4;
  const size_t n_domain = 10;
  const int rows = 50000;
  std::vector<Value> values;
  for (int i = 0; i < rows; ++i) {
    values.emplace_back(std::string("v").append(std::to_string(i % n_domain)));
  }
  Column c = MakeColumn(values);
  Domain d = Domain::FromValues(values);
  ASSERT_TRUE(RandomizeColumn(&c, d, p, rng).ok());
  int kept = 0;
  for (int r = 0; r < rows; ++r) {
    if (c.ValueAt(r) == values[static_cast<size_t>(r)]) ++kept;
  }
  double expected = (1.0 - p) + p / static_cast<double>(n_domain);
  EXPECT_NEAR(static_cast<double>(kept) / rows, expected, 0.01);
}

TEST(RandomizedResponseTest, FullRandomizationIsUniform) {
  Rng rng(5);
  const int rows = 30000;
  std::vector<Value> values(static_cast<size_t>(rows), Value("always_a"));
  values[0] = Value("b");
  values[1] = Value("c");
  Column c = MakeColumn(values);
  Domain d = Domain::FromValues(values);  // {always_a, b, c}
  ASSERT_TRUE(RandomizeColumn(&c, d, 1.0, rng).ok());
  std::unordered_map<std::string, int> counts;
  for (int r = 0; r < rows; ++r) counts[std::string(c.StringAt(r))]++;
  for (const auto& [value, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / rows, 1.0 / 3.0, 0.02)
        << value;
  }
}

TEST(RandomizedResponseTest, NullIsAFirstClassDomainValue) {
  Rng rng(7);
  std::vector<Value> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(i % 2 == 0 ? Value("a") : Value::Null());
  }
  Column c = MakeColumn(values);
  Domain d = Domain::FromValues(values);
  ASSERT_TRUE(RandomizeColumn(&c, d, 1.0, rng).ok());
  size_t nulls = c.null_count();
  EXPECT_GT(nulls, 800u);  // ~half the rows.
  EXPECT_LT(nulls, 1200u);
}

TEST(RandomizedResponseTest, RejectsBadInputs) {
  Rng rng(1);
  Column c = MakeColumn({Value("a")});
  Domain d = Domain::FromValues({Value("a")});
  std::vector<uint32_t> codes = *PrepareDomainCodes(&c, d);
  auto kernel = [&](Column* column, const Domain& domain, double p) {
    return ApplyRandomizedResponseShard(column, domain, p, rng, 0, 1, nullptr,
                                        nullptr, codes.data());
  };
  EXPECT_TRUE(kernel(nullptr, d, 0.1).IsInvalidArgument());
  EXPECT_TRUE(kernel(&c, d, -0.1).IsInvalidArgument());
  EXPECT_TRUE(kernel(&c, d, 1.1).IsInvalidArgument());
  Domain empty = Domain::FromValues({});
  EXPECT_TRUE(kernel(&c, empty, 0.1).IsFailedPrecondition());
}

TEST(TransitionProbabilitiesTest, Formulas) {
  // p=0.25, l=10, N=25 (paper Example 4's setting).
  TransitionProbabilities t =
      *ComputeTransitionProbabilities(0.25, 10.0, 25.0);
  EXPECT_DOUBLE_EQ(t.true_positive, 0.75 + 0.25 * 10.0 / 25.0);
  EXPECT_DOUBLE_EQ(t.false_positive, 0.25 * 10.0 / 25.0);
  EXPECT_DOUBLE_EQ(t.true_negative, 0.75 + 0.25 * 15.0 / 25.0);
  EXPECT_DOUBLE_EQ(t.false_negative, 0.25 * 15.0 / 25.0);
}

TEST(TransitionProbabilitiesTest, RowsSumToOne) {
  for (double p : {0.0, 0.1, 0.5, 1.0}) {
    for (double l : {0.0, 1.0, 5.0, 10.0}) {
      TransitionProbabilities t =
          *ComputeTransitionProbabilities(p, l, 10.0);
      EXPECT_NEAR(t.true_positive + t.false_negative, 1.0, 1e-12);
      EXPECT_NEAR(t.true_negative + t.false_positive, 1.0, 1e-12);
    }
  }
}

TEST(TransitionProbabilitiesTest, TauGapIsOneMinusP) {
  for (double p : {0.0, 0.25, 0.7}) {
    TransitionProbabilities t = *ComputeTransitionProbabilities(p, 3.0, 8.0);
    EXPECT_NEAR(t.true_positive - t.false_positive, 1.0 - p, 1e-12);
  }
}

TEST(TransitionProbabilitiesTest, FractionalSelectivityAllowed) {
  // Weighted provenance cuts produce fractional l (§7.2).
  EXPECT_TRUE(ComputeTransitionProbabilities(0.1, 2.5, 10.0).ok());
}

TEST(TransitionProbabilitiesTest, RejectsBadInputs) {
  EXPECT_FALSE(ComputeTransitionProbabilities(-0.1, 1.0, 10.0).ok());
  EXPECT_FALSE(ComputeTransitionProbabilities(1.1, 1.0, 10.0).ok());
  EXPECT_FALSE(ComputeTransitionProbabilities(0.1, -1.0, 10.0).ok());
  EXPECT_FALSE(ComputeTransitionProbabilities(0.1, 11.0, 10.0).ok());
  EXPECT_FALSE(ComputeTransitionProbabilities(0.1, 1.0, 0.0).ok());
}

TEST(RandomizedResponseTest, DeterministicGivenSeed) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) {
    values.emplace_back(std::string("v").append(std::to_string(i % 5)));
  }
  Domain d = Domain::FromValues(values);
  Column c1 = MakeColumn(values), c2 = MakeColumn(values);
  Rng rng1(42), rng2(42);
  ASSERT_TRUE(RandomizeColumn(&c1, d, 0.3, rng1).ok());
  ASSERT_TRUE(RandomizeColumn(&c2, d, 0.3, rng2).ok());
  for (size_t r = 0; r < c1.size(); ++r) {
    EXPECT_EQ(c1.ValueAt(r), c2.ValueAt(r));
  }
}

}  // namespace
}  // namespace privateclean
