#ifndef PRIVATECLEAN_PRIVACY_RANDOMIZED_RESPONSE_H_
#define PRIVATECLEAN_PRIVACY_RANDOMIZED_RESPONSE_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {

/// Pre-interns every string domain value into the dictionary of a string
/// `column` and returns the domain-index -> dictionary-code table (the
/// null domain member maps to kNullCode). This is the single-writer step
/// that must run *before* sharded randomization: with the table in hand,
/// the parallel kernels replace a row with one Bernoulli draw, one
/// uniform integer draw, and a plain `uint32_t` store — no string copies
/// and no dictionary mutation. Rejects non-string domain members with
/// InvalidArgument (they could never be stored in the column).
///
/// For non-string columns returns an empty table; the kernels then write
/// through the typed numeric storage as before.
Result<std::vector<uint32_t>> PrepareDomainCodes(Column* column,
                                                 const Domain& domain);

/// Randomized-response mechanism for a discrete attribute (paper §4.2.1):
///
///   r'[d] = r[d]              with probability 1 - p
///         = U(Domain(d))      with probability p
///
/// The replacement is drawn uniformly from `domain` — which must be the
/// domain of the *original dirty* column, captured before randomization.
/// Null is a legitimate domain member (spurious/missing values in the
/// dirty data are part of Domain(d) and participate in randomization).
/// Requires p in [0, 1] and a non-empty domain. p == 0 leaves the column
/// untouched (no privacy); p == 1 replaces every value.
///
/// This is the row-range kernel, for sharded execution
/// (common/thread_pool.h): it randomizes rows [begin, end) of `column`
/// drawing from `rng`. Kernels over disjoint ranges may run concurrently
/// on one column — writes go through the raw typed storage and skip the
/// shared null bookkeeping, so the caller must invoke
/// `column->RecomputeNullCount()` after all shards finish.
///
/// `domain_codes` must be the table returned by PrepareDomainCodes for
/// this (column, domain) pair; it is required for string columns (the
/// kernel writes codes, never strings) and ignored for numeric ones.
///
/// If `coverage` is non-null it must point at `domain.size()` flags; the
/// kernel sets the flag of every domain value that appears in the range
/// *after* randomization — replaced rows mark the drawn index, untouched
/// rows mark `original_indices[r]` (the domain index of the row's
/// pre-randomization value, which the caller computes once per column;
/// UINT32_MAX marks a value outside the domain and contributes nothing).
/// This is how `ApplyGrr` tracks Theorem 2 domain preservation in the
/// same pass as the randomization instead of rescanning the column.
/// `original_indices` may be null when `coverage` is null.
Status ApplyRandomizedResponseShard(Column* column, const Domain& domain,
                                    double p, Rng& rng, size_t begin,
                                    size_t end,
                                    const uint32_t* original_indices,
                                    uint8_t* coverage,
                                    const uint32_t* domain_codes = nullptr);

/// Sentinel a perturbation draw functor returns to keep a row's original
/// value (no replacement).
inline constexpr size_t kKeepRowDraw = static_cast<size_t>(-1);

/// Generic row-range perturbation kernel shared by every registered
/// mechanism (privacy/mechanism.h). `draw(rng, n)` decides each row's
/// fate: `kKeepRowDraw` keeps the original value, any other return is
/// the domain index of the replacement. The functor owns the mechanism's
/// entire draw sequence, so two mechanisms differ *only* in their
/// functor — storage writes, coverage tracking, and the dictionary fast
/// path are identical. The legacy GRR kernel
/// (ApplyRandomizedResponseShard) is the `Bernoulli(p)` +
/// `UniformInt(n)` instantiation of this template, byte-for-byte.
///
/// Contract is identical to ApplyRandomizedResponseShard below:
/// `domain_codes` from PrepareDomainCodes is required for string
/// columns, `coverage`/`original_indices` track Theorem 2 domain
/// preservation, and the caller recomputes the null count after all
/// shards finish.
template <typename DrawFn>
Status PerturbCodesShard(Column* column, const Domain& domain, DrawFn&& draw,
                         Rng& rng, size_t begin, size_t end,
                         const uint32_t* original_indices, uint8_t* coverage,
                         const uint32_t* domain_codes) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  if (domain.empty()) {
    return Status::FailedPrecondition(
        "randomized response requires a non-empty domain");
  }
  if (end > column->size() || begin > end) {
    return Status::OutOfRange("randomization range out of bounds");
  }
  if (coverage != nullptr && original_indices == nullptr) {
    return Status::InvalidArgument(
        "coverage tracking requires the original domain indices");
  }
  if (column->type() == ValueType::kString && domain_codes == nullptr) {
    return Status::InvalidArgument(
        "string columns require the PrepareDomainCodes table");
  }

  uint8_t* valid = column->mutable_validity()->data();
  const size_t n = domain.size();

  if (column->type() == ValueType::kString) {
    // Dictionary fast path: a replacement is one table lookup and one
    // aligned 4-byte store. The draw sequence lives entirely in the
    // functor, so the string and boxed paths produce bit-identical
    // columns from the same stream.
    uint32_t* codes = column->mutable_codes()->data();
    for (size_t r = begin; r < end; ++r) {
      size_t j = draw(rng, n);
      if (j == kKeepRowDraw) {
        if (coverage != nullptr && original_indices[r] != UINT32_MAX) {
          coverage[original_indices[r]] = 1;
        }
        continue;
      }
      uint32_t code = domain_codes[j];
      codes[r] = code;
      valid[r] = (code == kNullCode) ? 0 : 1;
      if (coverage != nullptr) coverage[j] = 1;
    }
    return Status::OK();
  }

  for (size_t r = begin; r < end; ++r) {
    size_t j = draw(rng, n);
    if (j == kKeepRowDraw) {
      // UINT32_MAX flags a row whose original value is outside the
      // domain (possible only with a caller-supplied domain); it
      // contributes no coverage.
      if (coverage != nullptr && original_indices[r] != UINT32_MAX) {
        coverage[original_indices[r]] = 1;
      }
      continue;
    }
    const Value& v = domain.value(j);
    if (v.is_null()) {
      switch (column->type()) {
        case ValueType::kInt64:
          (*column->mutable_ints())[r] = 0;
          break;
        case ValueType::kDouble:
          (*column->mutable_doubles())[r] = 0.0;
          break;
        default:
          return Status::Internal("unexpected column type");
      }
      valid[r] = 0;
    } else {
      if (v.type() != column->type()) {
        return Status::InvalidArgument(
            std::string("cannot set ") + ValueTypeToString(v.type()) +
            " value in " + ValueTypeToString(column->type()) + " column");
      }
      switch (column->type()) {
        case ValueType::kInt64:
          (*column->mutable_ints())[r] = v.AsInt64();
          break;
        case ValueType::kDouble:
          (*column->mutable_doubles())[r] = v.AsDouble();
          break;
        default:
          return Status::Internal("unexpected column type");
      }
      valid[r] = 1;
    }
    if (coverage != nullptr) coverage[j] = 1;
  }
  return Status::OK();
}

/// Transition probabilities of randomized response for a predicate that
/// selects l of the N distinct values (paper §5.3). These are the
/// deterministic constants the estimators are parameterized by.
struct TransitionProbabilities {
  double true_positive = 0.0;   ///< τ_p = (1-p) + p·l/N
  double false_positive = 0.0;  ///< τ_n = p·l/N
  double true_negative = 0.0;   ///< (1-p) + p·(N-l)/N
  double false_negative = 0.0;  ///< p·(N-l)/N
};

/// Computes the transition probabilities. `l` may be fractional in the
/// multi-attribute (weighted provenance) case (§7.2). Requires
/// 0 <= p <= 1, N >= 1 and 0 <= l <= N.
Result<TransitionProbabilities> ComputeTransitionProbabilities(double p,
                                                               double l,
                                                               double n);

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_RANDOMIZED_RESPONSE_H_
