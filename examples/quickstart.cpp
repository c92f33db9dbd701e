// Quickstart: the course-evaluation scenario from the paper's Figure 1.
//
// A provider holds a relation R(major, score) with inconsistent major
// spellings. It releases an ε-locally-differentially-private version; the
// analyst resolves the inconsistencies on the *private* relation and asks
// for the average score of Mechanical Engineers. PrivateClean's corrected
// estimator answers with a confidence interval; we compare against the
// Direct (uncorrected) baseline and the ground truth.

#include <cstdio>

#include "core/privateclean.h"
#include "table/table_builder.h"

using namespace privateclean;

namespace {

/// Builds the original (non-private, dirty) relation: 400 students over
/// a handful of majors, where "Mechanical Engineering" is also written
/// "Mech. Eng." and "Mechanical E.".
Result<Table> BuildCourseEvaluations(Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({Field::Discrete("major", ValueType::kString),
                    Field::Numerical("score", ValueType::kDouble)}));
  const char* spellings[] = {"Mechanical Engineering", "Mech. Eng.",
                             "Mechanical E."};
  const char* majors[] = {"EECS", "Civil Engineering", "Math", "Physics",
                          "Chemistry", "Biology", "History", "Economics"};
  TableBuilder builder(schema);
  for (int i = 0; i < 400; ++i) {
    double score;
    Value major;
    if (rng.Bernoulli(0.3)) {  // A mechanical engineer, some spelling.
      major = Value(spellings[rng.UniformInt(3)]);
      score = 3.2 + rng.Gaussian(0.0, 0.8);
    } else {
      major = Value(majors[rng.UniformInt(8)]);
      score = 3.8 + rng.Gaussian(0.0, 0.9);
    }
    builder.Row({major, Value(std::clamp(score, 0.0, 5.0))});
  }
  return builder.Finish();
}

}  // namespace

int main() {
  Rng rng(2016);

  auto original = BuildCourseEvaluations(rng);
  if (!original.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 original.status().ToString().c_str());
    return 1;
  }

  // --- Provider side: privatize with GRR --------------------------------
  GrrParams params = GrrParams::Uniform(/*p=*/0.15, /*b=*/0.5);
  auto private_table =
      PrivateTable::Create(*original, params, GrrOptions{}, rng);
  if (!private_table.ok()) {
    std::fprintf(stderr, "privatize: %s\n",
                 private_table.status().ToString().c_str());
    return 1;
  }
  auto report = private_table->PrivacyAccounting();
  std::printf("Private relation created: S=%zu, total epsilon=%.3f\n",
              private_table->size(), report->total_epsilon);

  // --- Analyst side: clean the private relation -------------------------
  std::unordered_map<Value, Value, ValueHash> fixes{
      {Value("Mechanical Engineering"), Value("Mech. Eng.")},
      {Value("Mechanical E."), Value("Mech. Eng.")},
  };
  Status st =
      private_table->Clean(FindReplace("major", std::move(fixes)));
  if (!st.ok()) {
    std::fprintf(stderr, "clean: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Resolved major spellings on the private relation.\n\n");

  // --- Query: AVG(score) WHERE major = 'Mech. Eng.' ----------------------
  Predicate pred = Predicate::Equals("major", "Mech. Eng.");
  auto pc = private_table->Execute(AggregateQuery::Avg("score", pred));
  auto direct = private_table->ExecuteDirect(
      AggregateQuery::Avg("score", pred));
  if (!pc.ok() || !direct.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }

  // Ground truth: the same cleaning applied to the original relation.
  Table truth = original->Clone();
  std::unordered_map<Value, Value, ValueHash> fixes2{
      {Value("Mechanical Engineering"), Value("Mech. Eng.")},
      {Value("Mechanical E."), Value("Mech. Eng.")},
  };
  (void)FindReplace("major", std::move(fixes2)).Apply(&truth);
  auto truth_avg =
      ExecuteAggregate(truth, AggregateQuery::Avg("score", pred));

  std::printf("AVG(score) WHERE major = 'Mech. Eng.'\n");
  std::printf("  ground truth : %.4f\n", *truth_avg);
  std::printf("  PrivateClean : %.4f   95%% CI [%.4f, %.4f]\n",
              pc->estimate, pc->ci.lo, pc->ci.hi);
  std::printf("  Direct       : %.4f\n", direct->estimate);
  std::printf("\nEstimator internals: p=%.2f  l=%.1f  N=%.0f\n", pc->p,
              pc->l, pc->n);
  return 0;
}
