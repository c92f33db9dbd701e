#include "datagen/synthetic.h"

#include <algorithm>

#include "table/table_builder.h"

namespace privateclean {

Value SyntheticCategory(size_t rank) {
  return Value(std::string("c").append(std::to_string(rank)));
}

Result<Table> GenerateSynthetic(const SyntheticOptions& options, Rng& rng) {
  if (options.num_rows == 0) {
    return Status::InvalidArgument("num_rows must be > 0");
  }
  if (options.num_distinct == 0) {
    return Status::InvalidArgument("num_distinct must be > 0");
  }
  if (!(options.numeric_hi > options.numeric_lo)) {
    return Status::InvalidArgument("numeric range must be non-degenerate");
  }
  if (options.zipf_skew < 0.0) {
    return Status::InvalidArgument("zipf_skew must be >= 0");
  }

  PCLEAN_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({Field::Discrete("category", ValueType::kString),
                    Field::Numerical("value", ValueType::kDouble)}));

  ZipfianSampler category_sampler(options.num_distinct, options.zipf_skew);
  // The numeric attribute's marginal is Zipf-shaped over 101 buckets
  // spanning [lo, hi] ("both attributes drawn from a Zipfian
  // distribution", §8.2), with within-bucket jitter.
  constexpr size_t kNumericBuckets = 101;
  ZipfianSampler numeric_sampler(kNumericBuckets, options.zipf_skew);

  double span = options.numeric_hi - options.numeric_lo;
  TableBuilder builder(schema);
  builder.Reserve(options.num_rows);
  for (size_t r = 0; r < options.num_rows; ++r) {
    size_t cat_rank = category_sampler.Sample(rng);
    double numeric;
    if (options.correlated) {
      // Mean tracks the category rank (head ranks get the high values,
      // so aggregate sums stay well above the Laplace noise floor);
      // jitter keeps the value continuous.
      double base = options.numeric_hi -
                    span * static_cast<double>(cat_rank) /
                        static_cast<double>(options.num_distinct);
      numeric = std::clamp(base + rng.Gaussian(0.0, span * 0.05),
                           options.numeric_lo, options.numeric_hi);
    } else {
      size_t bucket = numeric_sampler.Sample(rng);
      double base = options.numeric_lo +
                    span * static_cast<double>(bucket) /
                        static_cast<double>(kNumericBuckets - 1);
      numeric = std::clamp(base + rng.UniformRealRange(-span * 0.005,
                                                       span * 0.005),
                           options.numeric_lo, options.numeric_hi);
    }
    builder.Row({SyntheticCategory(cat_rank), Value(numeric)});
  }
  return builder.Finish();
}

std::vector<Value> PickPredicateCategories(size_t num_distinct,
                                           size_t num_values, int mode,
                                           Rng& rng) {
  num_values = std::min(num_values, num_distinct);
  std::vector<size_t> ranks;
  switch (mode) {
    case 0:  // Most frequent.
      for (size_t k = 0; k < num_values; ++k) ranks.push_back(k);
      break;
    case 1:  // Rarest.
      for (size_t k = 0; k < num_values; ++k) {
        ranks.push_back(num_distinct - 1 - k);
      }
      break;
    default: {  // Uniform random subset.
      std::vector<size_t> all(num_distinct);
      for (size_t k = 0; k < num_distinct; ++k) all[k] = k;
      rng.Shuffle(all);
      ranks.assign(all.begin(), all.begin() + num_values);
      break;
    }
  }
  std::vector<Value> values;
  values.reserve(ranks.size());
  for (size_t k : ranks) values.push_back(SyntheticCategory(k));
  return values;
}

}  // namespace privateclean
