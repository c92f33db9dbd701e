// End-to-end miniatures of the paper's experiment pipelines. Each test
// runs the full provider->privatize->clean->query flow and asserts the
// qualitative claims of the evaluation section at small scale.

#include <gtest/gtest.h>

#include <cmath>

#include "core/privateclean.h"
#include "datagen/error_injection.h"
#include "datagen/intel_wireless.h"
#include "datagen/mcafe.h"
#include "datagen/synthetic.h"
#include "datagen/tpcds.h"

namespace privateclean {
namespace {

double MeanRelativeError(const std::vector<double>& estimates,
                         double truth) {
  double total = 0.0;
  for (double est : estimates) total += std::abs(est - truth);
  return total / (static_cast<double>(estimates.size()) * std::abs(truth));
}

TEST(IntegrationTest, SkewedCountPrivateCleanBeatsDirect) {
  // Figure 2a in miniature: skewed data, selective predicate, moderate
  // privacy — PrivateClean's corrected count must beat Direct on average.
  SyntheticOptions options;
  options.zipf_skew = 2.0;
  Rng data_rng(1);
  Table data = *GenerateSynthetic(options, data_rng);
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2), SyntheticCategory(3),
                   SyntheticCategory(4)});
  double truth = *ExecuteAggregate(data, AggregateQuery::Count(pred));

  std::vector<double> pc, direct;
  for (int t = 0; t < 25; ++t) {
    Rng rng(100 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.3, 10.0), GrrOptions{}, rng);
    pc.push_back(pt.Execute(AggregateQuery::Count(pred))->estimate);
    direct.push_back(
        pt.ExecuteDirect(AggregateQuery::Count(pred))->estimate);
  }
  EXPECT_LT(MeanRelativeError(pc, truth), MeanRelativeError(direct, truth));
}

TEST(IntegrationTest, ErrorRateFlatForPrivateClean) {
  // Figure 5 in miniature: with spelling errors + repair, PrivateClean's
  // error stays low while Direct's grows.
  SyntheticOptions options;
  Rng data_rng(2);
  Table base = *GenerateSynthetic(options, data_rng);
  Rng inject_rng(3);
  InjectionResult injected =
      *InjectSpellingErrors(base, "category", 0.4, 0.5, inject_rng);

  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2), SyntheticCategory(3),
                   SyntheticCategory(4)});
  double truth =
      *ExecuteAggregate(injected.clean, AggregateQuery::Count(pred));

  std::vector<double> pc, direct;
  for (int t = 0; t < 25; ++t) {
    Rng rng(200 + t);
    PrivateTable pt = *PrivateTable::Create(
        injected.dirty, GrrParams::Uniform(0.2, 10.0), GrrOptions{}, rng);
    ASSERT_TRUE(
        pt.Clean(FindReplace("category", injected.repair_map)).ok());
    pc.push_back(pt.Execute(AggregateQuery::Count(pred))->estimate);
    direct.push_back(
        pt.ExecuteDirect(AggregateQuery::Count(pred))->estimate);
  }
  double pc_err = MeanRelativeError(pc, truth);
  EXPECT_LT(pc_err, MeanRelativeError(direct, truth));
  EXPECT_LT(pc_err, 0.15);  // "Less than 10%" in the paper; slack here.
}

TEST(IntegrationTest, TpcdsFdRepairPipeline) {
  // Figure 8a in miniature: corrupt states, FD-repair the private
  // relation, GROUP BY state counts.
  Rng rng(4);
  TpcdsOptions options;
  options.num_rows = 1500;
  Table truth_table = *GenerateCustomerAddress(options, rng);
  Table dirty = truth_table.Clone();
  ASSERT_TRUE(CorruptStates(&dirty, 150, rng).ok());

  // Ground truth: repair applied to the non-private dirty data.
  Table repaired_truth = dirty.Clone();
  ASSERT_TRUE(FdRepair(CustomerAddressFd()).Apply(&repaired_truth).ok());

  Rng grr_rng(5);
  PrivateTable pt = *PrivateTable::Create(
      dirty, GrrParams::Uniform(0.15, 1.0), GrrOptions{}, grr_rng);
  ASSERT_TRUE(pt.Clean(FdRepair(CustomerAddressFd())).ok());

  // Count the most common state, PrivateClean vs Direct.
  auto truth_groups = *GroupByCount(repaired_truth, "ca_state");
  std::string top_state;
  size_t top_count = 0;
  for (const auto& [state, count] : truth_groups) {
    if (count > top_count) {
      top_state = state.ToString();
      top_count = count;
    }
  }
  Predicate pred = Predicate::Equals("ca_state", Value(top_state));
  double pc = pt.Execute(AggregateQuery::Count(pred))->estimate;
  double direct = pt.ExecuteDirect(AggregateQuery::Count(pred))->estimate;
  double truth = static_cast<double>(top_count);
  EXPECT_LE(std::abs(pc - truth), std::abs(direct - truth) + 15.0);
  EXPECT_NEAR(pc, truth, 0.35 * truth);
}

TEST(IntegrationTest, TpcdsMdRepairPipeline) {
  // Figure 8b in miniature: corrupt countries, MD-repair, count a country.
  Rng rng(6);
  TpcdsOptions options;
  options.num_rows = 1500;
  Table clean = *GenerateCustomerAddress(options, rng);
  Table dirty = clean.Clone();
  ASSERT_TRUE(CorruptCountries(&dirty, 150, rng).ok());

  Table repaired_truth = dirty.Clone();
  ASSERT_TRUE(MdRepair(CustomerAddressMd()).Apply(&repaired_truth).ok());

  Rng grr_rng(7);
  PrivateTable pt = *PrivateTable::Create(
      dirty, GrrParams::Uniform(0.15, 1.0), GrrOptions{}, grr_rng);
  ASSERT_TRUE(pt.Clean(MdRepair(CustomerAddressMd())).ok());

  Predicate pred = Predicate::Equals("ca_country", "United States");
  double truth =
      *ExecuteAggregate(repaired_truth, AggregateQuery::Count(pred));
  double pc = pt.Execute(AggregateQuery::Count(pred))->estimate;
  EXPECT_NEAR(pc, truth, 0.25 * truth);
}

TEST(IntegrationTest, IntelWirelessPipeline) {
  // §8.4 in miniature: merge spurious ids to null, count and average
  // where sensor_id is not null.
  Rng rng(8);
  IntelWirelessOptions options;
  options.num_rows = 8000;
  IntelWirelessData data = *GenerateIntelWireless(options, rng);

  Predicate pred = Predicate::IsNotNull("sensor_id");
  double truth_count =
      *ExecuteAggregate(data.clean, AggregateQuery::Count(pred));
  double truth_avg =
      *ExecuteAggregate(data.clean, AggregateQuery::Avg("temp", pred));

  Rng grr_rng(9);
  GrrParams params = GrrParams::Uniform(0.2, 0.0);
  params.numeric_b.clear();
  // epsilon-matched noise for temp only; humidity/light get modest noise.
  params.default_b = 2.0;
  PrivateTable pt =
      *PrivateTable::Create(data.dirty, params, GrrOptions{}, grr_rng);
  ASSERT_TRUE(pt.Clean(MergeToNull("sensor_id", data.is_spurious)).ok());

  double pc_count = pt.Execute(AggregateQuery::Count(pred))->estimate;
  EXPECT_NEAR(pc_count, truth_count, 0.05 * truth_count);
  double pc_avg = pt.Execute(AggregateQuery::Avg("temp", pred))->estimate;
  EXPECT_NEAR(pc_avg, truth_avg, 0.25 * std::abs(truth_avg));
}

TEST(IntegrationTest, McafePipeline) {
  // §8.5 in miniature: isEurope() aggregation on the private relation.
  Rng rng(10);
  Table data = *GenerateMcafe(McafeOptions{}, rng);
  Predicate europe = Predicate::Udf("country", McafeIsEurope);
  double truth_count =
      *ExecuteAggregate(data, AggregateQuery::Count(europe));
  ASSERT_GT(truth_count, 0.0);

  std::vector<double> pc, direct;
  for (int t = 0; t < 30; ++t) {
    Rng grr_rng(300 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.1, 1.0), GrrOptions{}, grr_rng);
    pc.push_back(pt.Execute(AggregateQuery::Count(europe))->estimate);
    direct.push_back(
        pt.ExecuteDirect(AggregateQuery::Count(europe))->estimate);
  }
  // High distinct fraction is the hard regime: just require PrivateClean
  // to be competitive and in the right ballpark on average.
  double pc_err = MeanRelativeError(pc, truth_count);
  double direct_err = MeanRelativeError(direct, truth_count);
  EXPECT_LT(pc_err, direct_err + 0.10);
  EXPECT_LT(pc_err, 0.75);
}

TEST(IntegrationTest, CsvRoundTripThroughPrivatization) {
  // Provider writes a private CSV; analyst reads it back and queries.
  Rng rng(11);
  SyntheticOptions options;
  options.num_rows = 500;
  Table data = *GenerateSynthetic(options, rng);
  Rng grr_rng(12);
  GrrOutput grr = *ApplyGrr(data, GrrParams::Uniform(0.1, 5.0),
                            GrrOptions{}, grr_rng);
  std::string path = ::testing::TempDir() + "/private_view.csv";
  ASSERT_TRUE(WriteCsvFile(grr.table, path).ok());
  Table loaded = *ReadCsvFile(path, data.schema());
  EXPECT_EQ(loaded.num_rows(), 500u);
  double nominal_count = *ExecuteAggregate(
      loaded, AggregateQuery::Count(
                  Predicate::Equals("category", SyntheticCategory(0))));
  double direct_count = *ExecuteAggregate(
      grr.table, AggregateQuery::Count(
                     Predicate::Equals("category", SyntheticCategory(0))));
  EXPECT_DOUBLE_EQ(nominal_count, direct_count);
  std::remove(path.c_str());
}

TEST(IntegrationTest, PostProcessingPreservesEpsilon) {
  // Cleaning must not change the privacy accounting (Dwork Prop. 2.1).
  Rng rng(13);
  Table data = *GenerateSynthetic(SyntheticOptions{}, rng);
  Rng grr_rng(14);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.2, 5.0), GrrOptions{}, grr_rng);
  double eps_before = pt.PrivacyAccounting()->total_epsilon;
  ASSERT_TRUE(pt.Clean(FindReplace::Single("category", SyntheticCategory(1),
                                           SyntheticCategory(0)))
                  .ok());
  double eps_after = pt.PrivacyAccounting()->total_epsilon;
  EXPECT_DOUBLE_EQ(eps_before, eps_after);
}

}  // namespace
}  // namespace privateclean
