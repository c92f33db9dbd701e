#include "datagen/mcafe.h"

#include <algorithm>

#include "datagen/names.h"
#include "table/table_builder.h"

namespace privateclean {

Result<Table> GenerateMcafe(const McafeOptions& options, Rng& rng) {
  if (options.num_rows == 0) {
    return Status::InvalidArgument("num_rows must be > 0");
  }
  if (options.num_countries == 0) {
    return Status::InvalidArgument("num_countries must be > 0");
  }
  if (!(options.missing_rate >= 0.0 && options.missing_rate <= 1.0)) {
    return Status::InvalidArgument("missing_rate must be in [0, 1]");
  }

  // Country list: the base codes (US first, Europe early) extended with
  // synthetic codes to reach the requested distinct count.
  std::vector<std::string> countries = CountryCodes();
  for (size_t k = countries.size(); k < options.num_countries; ++k) {
    countries.push_back(std::string("X").append(std::to_string(k)));
  }
  countries.resize(options.num_countries);

  PCLEAN_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({Field::Discrete("country", ValueType::kString),
                    Field::Numerical("enthusiasm", ValueType::kDouble)}));

  // US with probability us_share; otherwise a low-skew Zipf over the
  // remaining codes, so the tail stays long (many near-singleton
  // countries, as in the real data).
  ZipfianSampler tail_sampler(
      countries.size() > 1 ? countries.size() - 1 : 1, options.zipf_skew);
  TableBuilder builder(schema);
  builder.Reserve(options.num_rows);
  for (size_t r = 0; r < options.num_rows; ++r) {
    Value country;
    if (!rng.Bernoulli(options.missing_rate)) {
      if (countries.size() == 1 || rng.Bernoulli(options.us_share)) {
        country = Value(countries[0]);
      } else {
        country = Value(countries[1 + tail_sampler.Sample(rng)]);
      }
    }
    // Enthusiasm 1-10; international students score slightly differently
    // so the predicate and aggregate are mildly correlated, as real
    // evaluations would be.
    double base = country.is_null() ? 6.0
                  : country.AsString() == "US"
                      ? 7.0
                      : (McafeIsEurope(country) ? 6.2 : 6.6);
    double enthusiasm =
        std::clamp(base + rng.Gaussian(0.0, 1.8), 1.0, 10.0);
    builder.Row({country, Value(enthusiasm)});
  }
  return builder.Finish();
}

bool McafeIsEurope(const Value& country) {
  if (country.is_null() || country.type() != ValueType::kString) {
    return false;
  }
  return IsEuropeanCountryCode(country.AsString());
}

}  // namespace privateclean
