// Whole-column randomized response for tests, built on the production
// row-range kernel: pre-intern the domain codes, randomize rows
// [0, size) in one shard, then recompute the null count — the same
// three steps ApplyGrr runs per column, minus the sharding.
#ifndef PRIVATECLEAN_TESTS_RANDOMIZE_COLUMN_H_
#define PRIVATECLEAN_TESTS_RANDOMIZE_COLUMN_H_

#include <vector>

#include "privacy/randomized_response.h"

namespace privateclean {

inline Status RandomizeColumn(Column* column, const Domain& domain, double p,
                              Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(std::vector<uint32_t> codes,
                          PrepareDomainCodes(column, domain));
  PCLEAN_RETURN_NOT_OK(ApplyRandomizedResponseShard(
      column, domain, p, rng, 0, column->size(), nullptr, nullptr,
      codes.empty() ? nullptr : codes.data()));
  column->RecomputeNullCount();
  return Status::OK();
}

}  // namespace privateclean

#endif  // PRIVATECLEAN_TESTS_RANDOMIZE_COLUMN_H_
