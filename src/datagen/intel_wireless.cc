#include "datagen/intel_wireless.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "cleaning/merge.h"
#include "table/table_builder.h"

namespace privateclean {

Result<IntelWirelessData> GenerateIntelWireless(
    const IntelWirelessOptions& options, Rng& rng) {
  if (options.num_sensors == 0 || options.num_rows == 0) {
    return Status::InvalidArgument("need at least one sensor and one row");
  }
  if (!(options.failure_rate >= 0.0 && options.failure_rate <= 1.0)) {
    return Status::InvalidArgument("failure_rate must be in [0, 1]");
  }

  PCLEAN_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({Field::Discrete("sensor_id", ValueType::kString),
                    Field::Numerical("temp", ValueType::kDouble),
                    Field::Numerical("humidity", ValueType::kDouble),
                    Field::Numerical("light", ValueType::kDouble)}));

  // Per-sensor baselines: each sensor sits in a slightly different spot
  // of the lab, so its readings have a stable offset.
  std::vector<double> temp_base(options.num_sensors);
  std::vector<double> hum_base(options.num_sensors);
  std::vector<double> light_base(options.num_sensors);
  for (size_t sensor = 0; sensor < options.num_sensors; ++sensor) {
    temp_base[sensor] = rng.UniformRealRange(18.0, 26.0);
    hum_base[sensor] = rng.UniformRealRange(30.0, 55.0);
    light_base[sensor] = rng.UniformRealRange(50.0, 600.0);
  }

  // Spurious tokens a failing logger emits instead of its id.
  std::vector<std::string> spurious_tokens;
  for (size_t i = 0; i < std::max<size_t>(options.num_spurious_tokens, 1);
       ++i) {
    spurious_tokens.push_back("ERR_" + std::to_string(1000 + i * 37));
  }
  auto spurious_set = std::make_shared<std::unordered_set<std::string>>(
      spurious_tokens.begin(), spurious_tokens.end());

  // Rows are skewed across sensors (some report much more often).
  ZipfianSampler sensor_sampler(options.num_sensors, 1.1);

  TableBuilder builder(schema);
  builder.Reserve(options.num_rows);
  for (size_t r = 0; r < options.num_rows; ++r) {
    size_t sensor = sensor_sampler.Sample(rng);
    bool failed = rng.Bernoulli(options.failure_rate);
    // Diurnal-ish cycle plus sensor noise.
    double phase =
        2.0 * M_PI * static_cast<double>(r) /
        std::max<double>(1.0, static_cast<double>(options.num_rows) / 16.0);
    double temp = temp_base[sensor] + 2.0 * std::sin(phase) +
                  rng.Gaussian(0.0, 0.4);
    double humidity = hum_base[sensor] - 4.0 * std::sin(phase) +
                      rng.Gaussian(0.0, 1.2);
    double light = std::max(
        0.0, light_base[sensor] * (0.6 + 0.4 * std::sin(phase)) +
                 rng.Gaussian(0.0, 20.0));

    Value id;
    if (failed) {
      // Failure episode: garbage or missing id, untrustworthy readings.
      if (rng.Bernoulli(options.spurious_id_prob)) {
        id = Value(spurious_tokens[rng.UniformInt(spurious_tokens.size())]);
      } else {
        id = Value::Null();
      }
      temp = rng.UniformRealRange(-40.0, 120.0);  // Outlier reading.
      humidity = rng.UniformRealRange(-10.0, 150.0);
      light = rng.UniformRealRange(0.0, 20000.0);
    } else {
      id = Value(std::string("s").append(std::to_string(sensor + 1)));
    }
    builder.Row({id, Value(temp), Value(humidity), Value(light)});
  }
  PCLEAN_ASSIGN_OR_RETURN(Table dirty, builder.Finish());

  IntelWirelessData data{std::move(dirty), Table(), nullptr};
  data.is_spurious = [spurious_set](const Value& v) {
    return !v.is_null() && v.type() == ValueType::kString &&
           spurious_set->count(v.AsString()) > 0;
  };

  // Ground truth: the paper's cleaning applied exactly (spurious -> null).
  data.clean = data.dirty.Clone();
  MergeToNull cleaner("sensor_id", data.is_spurious);
  PCLEAN_RETURN_NOT_OK(cleaner.Apply(&data.clean));
  return data;
}

}  // namespace privateclean
