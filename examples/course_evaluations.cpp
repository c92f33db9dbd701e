// Course-evaluation analysis on a private relation (the paper's MCAFE
// scenario, §8.5). A provider releases privatized student evaluations —
// country code and enthusiasm score — and the analyst aggregates
// European students against the rest, a semantic transformation that is
// only possible because GRR keeps the values human-readable (unlike
// encryption, §2.3). Demonstrates:
//   * parameter tuning from a target count accuracy (Appendix E),
//   * Extract cleaners creating a derived region attribute,
//   * corrected count/avg with confidence intervals vs Direct,
//   * epsilon accounting before release.

#include <cstdio>

#include "core/privateclean.h"
#include "datagen/mcafe.h"

using namespace privateclean;

int main() {
  Rng rng(2016);
  Table evaluations = *GenerateMcafe(McafeOptions{}, rng);
  std::printf("Collected %zu course evaluations.\n\n",
              evaluations.num_rows());
  std::printf("%s\n", evaluations.ToString(5).c_str());

  // --- Provider: pick privacy parameters from an accuracy target --------
  // "Any count query should be within 7 points of selectivity with 95%
  // confidence."
  auto tuning = TunePrivacyParameters(evaluations, /*max_count_error=*/0.07,
                                      /*confidence=*/0.95);
  if (!tuning.ok()) {
    std::fprintf(stderr, "tuning: %s\n",
                 tuning.status().ToString().c_str());
    return 1;
  }
  std::printf("Tuned parameters: p=%.3f, b(enthusiasm)=%.3f "
              "(per-attribute epsilon %.3f)\n",
              tuning->p, tuning->numeric_b.at("enthusiasm"),
              tuning->per_attribute_epsilon);

  GrrOptions grr_options;
  grr_options.ensure_domain_preserved = false;  // High distinct fraction.
  auto private_table = PrivateTable::Create(
      evaluations, ToGrrParams(*tuning), grr_options, rng);
  if (!private_table.ok()) {
    std::fprintf(stderr, "privatize: %s\n",
                 private_table.status().ToString().c_str());
    return 1;
  }
  PrivacyReport report = *private_table->PrivacyAccounting();
  std::printf("Released private relation with total epsilon %.3f\n\n",
              report.total_epsilon);

  // --- Analyst: derive a region attribute and aggregate -----------------
  ExtractAttribute derive_region(
      "region", {"country"}, [](const std::vector<Value>& tuple) {
        if (tuple[0].is_null()) return Value("unknown");
        return Value(McafeIsEurope(tuple[0]) ? "europe" : "other");
      });
  Status st = private_table->Clean(derive_region);
  if (!st.ok()) {
    std::fprintf(stderr, "clean: %s\n", st.ToString().c_str());
    return 1;
  }

  Predicate europe = Predicate::Equals("region", "europe");
  auto count = private_table->Execute(AggregateQuery::Count(europe));
  auto avg = private_table->Execute(AggregateQuery::Avg("enthusiasm", europe));
  auto direct_count =
      private_table->ExecuteDirect(AggregateQuery::Count(europe));

  // Ground truth (provider side, for demonstration only).
  Predicate truth_pred = Predicate::Udf("country", McafeIsEurope);
  double truth_count =
      *ExecuteAggregate(evaluations, AggregateQuery::Count(truth_pred));
  double truth_avg = *ExecuteAggregate(
      evaluations, AggregateQuery::Avg("enthusiasm", truth_pred));

  std::printf("European students:\n");
  std::printf("  true count    : %.0f\n", truth_count);
  if (count.ok()) {
    std::printf("  PrivateClean  : %.1f   95%% CI [%.1f, %.1f]\n",
                count->estimate, count->ci.lo, count->ci.hi);
  }
  if (direct_count.ok()) {
    std::printf("  Direct        : %.1f\n", direct_count->estimate);
  }
  std::printf("\nAverage enthusiasm (European students):\n");
  std::printf("  true          : %.3f\n", truth_avg);
  if (avg.ok()) {
    std::printf("  PrivateClean  : %.3f   95%% CI [%.3f, %.3f]\n",
                avg->estimate, avg->ci.lo, avg->ci.hi);
  }

  // --- Extension aggregates (§10) ---------------------------------------
  AggregateQuery median{AggregateType::kMedian, "enthusiasm", europe, 50.0};
  auto med = private_table->Execute(median);
  AggregateQuery stddev{AggregateType::kStd, "enthusiasm", std::nullopt,
                        50.0};
  auto sd = private_table->Execute(stddev);
  if (med.ok() && sd.ok()) {
    std::printf("\nExtensions: median enthusiasm (Europe) = %.2f, "
                "noise-corrected std (all) = %.2f\n",
                med->estimate, sd->estimate);
  }
  return 0;
}
