#ifndef PRIVATECLEAN_CORE_ESTIMATORS_H_
#define PRIVATECLEAN_CORE_ESTIMATORS_H_

#include <memory>

#include "common/result.h"
#include "core/query_result.h"
#include "privacy/randomized_response.h"
#include "query/aggregate.h"

namespace privateclean {

class Mechanism;

/// Deterministic inputs to the PrivateClean estimators (paper §5.3):
/// known to the query processor, so they do not affect the statistical
/// properties of the estimate.
struct EstimationInputs {
  /// Realized replacement probability of the predicate's attribute —
  /// for the paper's GRR this is the stored p; for other mechanisms it
  /// is the effective uniform-replacement probability their confusion
  /// matrix reduces to (privacy/mechanism.h).
  double p = 0.0;
  double l = 0.0;   ///< Dirty-side selectivity (weighted cut; §6.3/§7.2).
  double n = 1.0;   ///< N, number of distinct dirty values.
  double b = 0.0;   ///< Laplace scale of the aggregated numeric attr.
  double confidence = 0.95;
  /// The mechanism the relation was randomized under; the estimators
  /// take their transition probabilities from it. Null falls back to
  /// the paper's GRR computation over `p` (hand-built inputs, legacy
  /// callers) — identical math either way for GRR.
  std::shared_ptr<const Mechanism> mechanism;

  Status Validate() const;
};

/// The transition probabilities the bias corrections are built from:
/// the mechanism's, or the paper's GRR formula over `in.p` when no
/// mechanism is attached. The single seam between mechanisms and every
/// estimator (COUNT/SUM/AVG, conjunctive, group-by).
Result<TransitionProbabilities> TransitionsForInputs(
    const EstimationInputs& in);

/// COUNT estimator, Eq. 3:  ĉ = (c_private − S·τ_n) / (τ_p − τ_n),
/// with the CLT interval from §5.4 expressed in count units. For the
/// interval width the observed selectivity is clamped to
/// [1/(2S), 1 − 1/(2S)]: at the extremes the plug-in binomial variance
/// is identically zero and would yield a degenerate zero-width interval,
/// while the data only supports certainty up to O(1/S).
Result<QueryResult> EstimateCount(const QueryScanStats& stats,
                                  const EstimationInputs& in);

/// SUM estimator, Eq. 5 (complement-query trick, §5.5):
///   ĥ = ((1 − τ_n)·h_p − τ_n·h_p^c) / (τ_p − τ_n)
/// The interval follows §5.5, in sum units.
Result<QueryResult> EstimateSum(const QueryScanStats& stats,
                                const EstimationInputs& in);

/// AVG estimator (§5.6): avg = ĥ/ĉ (conditionally unbiased). The
/// interval is the conservative corner-ratio interval — upper CI of ĥ
/// over lower CI of ĉ and vice versa — exactly as the paper prescribes.
/// Errors with FailedPrecondition if the count interval straddles zero.
Result<QueryResult> EstimateAvg(const QueryScanStats& stats,
                                const EstimationInputs& in);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_ESTIMATORS_H_
