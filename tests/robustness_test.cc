// Robustness and cross-cutting coverage: CSV parser fuzzing (malformed
// input must produce Status errors, never crashes or invalid tables),
// the int64 numerical pipeline end to end (rounded Laplace noise), AVG
// confidence-interval coverage, and negated-predicate estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/statistics.h"
#include "core/privateclean.h"
#include "datagen/synthetic.h"
#include "table/csv.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

// --- CSV fuzzing ----------------------------------------------------------

TEST(CsvFuzzTest, RandomGarbageNeverCrashes) {
  Schema schema = *Schema::Make(
      {Field::Discrete("a"), Field::Numerical("b", ValueType::kDouble)});
  Rng rng(1);
  const char alphabet[] = "abc,\"\n\r0.5x\\N;\t ";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    size_t len = rng.UniformInt(200);
    for (size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.UniformInt(sizeof(alphabet) - 1)]);
    }
    auto result = CsvToTable(text, schema);
    if (result.ok()) {
      // Whatever parsed must be structurally sound.
      EXPECT_EQ(result->num_columns(), 2u);
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(result->column(c).size(), result->num_rows());
      }
    }
  }
}

TEST(CsvFuzzTest, RoundTripRandomTables) {
  Schema schema = *Schema::Make(
      {Field::Discrete("s"), Field::Numerical("d", ValueType::kDouble),
       Field::Numerical("i", ValueType::kInt64)});
  Rng rng(2);
  const char tricky[] = ",\"\n'x\\N ~";
  for (int trial = 0; trial < 50; ++trial) {
    TableBuilder b(schema);
    size_t rows = 1 + rng.UniformInt(20);
    for (size_t r = 0; r < rows; ++r) {
      Value s;
      if (!rng.Bernoulli(0.15)) {
        std::string str;
        size_t len = rng.UniformInt(8);
        for (size_t i = 0; i < len; ++i) {
          str.push_back(tricky[rng.UniformInt(sizeof(tricky) - 1)]);
        }
        // Avoid the empty string (indistinguishable from NULL by design
        // with the default null literal).
        str.push_back('z');
        s = Value(str);
      }
      Value d = rng.Bernoulli(0.15)
                    ? Value::Null()
                    : Value(rng.UniformRealRange(-1e6, 1e6));
      Value i = rng.Bernoulli(0.15)
                    ? Value::Null()
                    : Value(rng.UniformIntRange(-1000000, 1000000));
      b.Row({s, d, i});
    }
    Table t = *b.Finish();
    auto parsed = CsvToTable(TableToCsv(t), schema);
    ASSERT_TRUE(parsed.ok()) << "trial " << trial;
    ASSERT_EQ(parsed->num_rows(), t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        EXPECT_EQ(parsed->column(c).ValueAt(r), t.column(c).ValueAt(r))
            << "trial " << trial << " row " << r << " col " << c;
      }
    }
  }
}

// --- Int64 numerical pipeline ----------------------------------------------

TEST(Int64PipelineTest, RoundedNoiseSumStaysUnbiased) {
  // Numerical attribute stored as int64 (e.g. a 1-5 rating): GRR rounds
  // the Laplace noise; sums must stay approximately unbiased.
  Schema schema = *Schema::Make(
      {Field::Discrete("major"),
       Field::Numerical("rating", ValueType::kInt64)});
  TableBuilder b(schema);
  Rng data_rng(3);
  for (int i = 0; i < 800; ++i) {
    b.Row({Value(std::string("m").append(std::to_string(i % 8))),
           Value(static_cast<int64_t>(1 + data_rng.UniformInt(5)))});
  }
  Table data = *b.Finish();
  Predicate pred = Predicate::In("major", {Value("m0"), Value("m1")});
  double truth =
      *ExecuteAggregate(data, AggregateQuery::Sum("rating", pred));

  RunningMoments estimates;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng rng(4000 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.2, 1.0), GrrOptions{}, rng);
    estimates.Add(pt.Execute(AggregateQuery::Sum("rating", pred))->estimate);
  }
  double se = std::sqrt(estimates.SampleVariance() / trials);
  EXPECT_NEAR(estimates.Mean(), truth, std::max(4.0 * se, 4.0));
}

// --- AVG CI coverage ---------------------------------------------------------

TEST(AvgCoverageTest, IntervalCoversTruthAtLeastNominally) {
  SyntheticOptions options;
  options.correlated = true;
  Rng data_rng(5);
  Table data = *GenerateSynthetic(options, data_rng);
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2)});
  double truth =
      *ExecuteAggregate(data, AggregateQuery::Avg("value", pred));

  int covered = 0, total = 0;
  for (int t = 0; t < 40; ++t) {
    Rng rng(5000 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.2, 5.0), GrrOptions{}, rng);
    auto r = pt.Execute(AggregateQuery::Avg("value", pred));
    if (!r.ok()) continue;
    ++total;
    if (r->ci.Contains(truth)) ++covered;
  }
  ASSERT_GT(total, 30);
  // The corner-ratio interval is conservative; expect >= ~nominal.
  EXPECT_GE(static_cast<double>(covered) / total, 0.85);
}

// --- Negated predicates -------------------------------------------------------

TEST(NegatedPredicateTest, ComplementEstimatesAreConsistent) {
  SyntheticOptions options;
  Rng data_rng(6);
  Table data = *GenerateSynthetic(options, data_rng);
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(3)});
  Predicate negated = pred.Negate();

  Rng rng(6001);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.2, 5.0), GrrOptions{}, rng);
  QueryResult c = *pt.Execute(AggregateQuery::Count(pred));
  QueryResult nc = *pt.Execute(AggregateQuery::Count(negated));
  // l values complement to N.
  EXPECT_DOUBLE_EQ(c.l + nc.l, c.n);
  // Estimates complement to S (both corrections are linear in the
  // nominal count and the nominal counts partition S).
  EXPECT_NEAR(c.estimate + nc.estimate, static_cast<double>(pt.size()),
              1e-6);
}

TEST(NegatedPredicateTest, UnbiasedOverInstances) {
  SyntheticOptions options;
  Rng data_rng(7);
  Table data = *GenerateSynthetic(options, data_rng);
  Predicate negated =
      Predicate::Equals("category", SyntheticCategory(0)).Negate();
  double truth =
      *ExecuteAggregate(data, AggregateQuery::Count(negated));
  RunningMoments estimates;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    Rng rng(7000 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.3, 5.0), GrrOptions{}, rng);
    estimates.Add(pt.Execute(AggregateQuery::Count(negated))->estimate);
  }
  double se = std::sqrt(estimates.SampleVariance() / trials);
  EXPECT_NEAR(estimates.Mean(), truth, std::max(4.0 * se, 2.0));
}

}  // namespace
}  // namespace privateclean
