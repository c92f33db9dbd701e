#include "privacy/randomized_response.h"

namespace privateclean {

Result<std::vector<uint32_t>> PrepareDomainCodes(Column* column,
                                                 const Domain& domain) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  if (column->type() != ValueType::kString) return std::vector<uint32_t>{};
  std::vector<uint32_t> codes(domain.size(), kNullCode);
  for (size_t j = 0; j < domain.size(); ++j) {
    const Value& v = domain.value(j);
    if (v.is_null()) continue;  // Stays kNullCode: the null member.
    if (v.type() != ValueType::kString) {
      return Status::InvalidArgument(
          std::string("cannot set ") + ValueTypeToString(v.type()) +
          " value in string column");
    }
    codes[j] = column->InternString(v.AsString());
  }
  return codes;
}

Status ApplyRandomizedResponseShard(Column* column, const Domain& domain,
                                    double p, Rng& rng, size_t begin,
                                    size_t end,
                                    const uint32_t* original_indices,
                                    uint8_t* coverage,
                                    const uint32_t* domain_codes) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        "randomization probability must be in [0, 1], got " +
        std::to_string(p));
  }
  // The paper's draw sequence: one Bernoulli per row, one uniform draw
  // only on replacement. The p == 0 short-circuit consumes no draws.
  return PerturbCodesShard(
      column, domain,
      [p](Rng& r, size_t n) -> size_t {
        if (p == 0.0 || !r.Bernoulli(p)) return kKeepRowDraw;
        return static_cast<size_t>(r.UniformInt(n));
      },
      rng, begin, end, original_indices, coverage, domain_codes);
}

Result<TransitionProbabilities> ComputeTransitionProbabilities(double p,
                                                               double l,
                                                               double n) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("p must be in [0, 1]");
  }
  if (!(n >= 1.0)) {
    return Status::InvalidArgument("N must be >= 1");
  }
  if (!(l >= 0.0 && l <= n)) {
    return Status::InvalidArgument("l must be in [0, N]");
  }
  TransitionProbabilities t;
  t.true_positive = (1.0 - p) + p * l / n;
  t.false_positive = p * l / n;
  t.true_negative = (1.0 - p) + p * (n - l) / n;
  t.false_negative = p * (n - l) / n;
  return t;
}

}  // namespace privateclean
