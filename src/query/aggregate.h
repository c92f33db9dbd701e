#ifndef PRIVATECLEAN_QUERY_AGGREGATE_H_
#define PRIVATECLEAN_QUERY_AGGREGATE_H_

#include <map>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/thread_pool.h"
#include "query/predicate.h"
#include "query/vectorized.h"
#include "table/table.h"

namespace privateclean {

/// Supported aggregate functions. The paper's core class is
/// sum/count/avg (§3.2.2); median/percentile/var/std are the §10
/// extensions (Laplace noise has zero median, and its variance 2b² can be
/// subtracted from var). min/max exist for ground truth and the Direct
/// baseline only — extreme values are destroyed by randomization, so no
/// bias-corrected private estimator exists (the private entry points
/// reject them with a typed FailedPrecondition).
enum class AggregateType {
  kCount = 0,
  kSum = 1,
  kAvg = 2,
  kMedian = 3,
  kPercentile = 4,
  kVar = 5,
  kStd = 6,
  kMin = 7,
  kMax = 8,
};

const char* AggregateTypeToString(AggregateType agg);

/// `SELECT agg(numeric_attribute) FROM t WHERE predicate`.
///
/// `numeric_attribute` is ignored for kCount (SQL `count(1)`).
/// `predicate` is the WHERE tree — parsed by ParseSql or built
/// programmatically, the same Predicate value either way; a missing
/// predicate aggregates over the whole relation. `percentile` is only
/// meaningful for kPercentile.
struct AggregateQuery {
  AggregateType agg = AggregateType::kCount;
  std::string numeric_attribute;
  std::optional<Predicate> predicate;
  double percentile = 50.0;

  static AggregateQuery Count(std::optional<Predicate> pred = std::nullopt);
  static AggregateQuery Sum(std::string attr,
                            std::optional<Predicate> pred = std::nullopt);
  static AggregateQuery Avg(std::string attr,
                            std::optional<Predicate> pred = std::nullopt);
};

/// Executes the aggregate exactly on a (non-private) table. This is how
/// ground truth f(R_clean) is computed in the experiments, and also how
/// the Direct estimator reads nominal values off the private relation.
///
/// Null semantics: count counts rows (regardless of the numeric
/// attribute); sum skips null numeric entries; avg = sum of non-null
/// entries / count of predicate-matching rows with non-null numeric value.
/// Avg over a selection with zero (non-null) matching rows is a
/// FailedPrecondition, never 0 or NaN.
///
/// The scan runs vectorized: each shard walks its rows in fixed-size
/// batches (kVectorBatchRows), evaluating the compiled predicate into a
/// stack mask and accumulating matching rows in row order. Per-shard
/// partials (counts, sums, Welford moments, min/max, value buffers)
/// merge in shard index order, so the result — including floating-point
/// sums and the median/percentile value order — is bit-identical at every
/// thread count (batch boundaries are thread-count-independent).
Result<double> ExecuteAggregate(const Table& table,
                                const AggregateQuery& query,
                                const ExecutionOptions& exec = {});

/// Same, against an already-compiled predicate, for callers that compile
/// once and aggregate many times. `query.predicate` is ignored;
/// `predicate` supplies the row mask.
Result<double> ExecuteAggregate(const Table& table,
                                const AggregateQuery& query,
                                const CompiledPredicate& predicate,
                                const ExecutionOptions& exec = {});

/// One-pass scan producing everything the PrivateClean estimators need
/// (Section 5): the nominal count and sums under the predicate and its
/// complement, plus moments of the numeric attribute over the whole
/// relation (for the confidence intervals).
struct QueryScanStats {
  size_t total_rows = 0;          ///< S
  size_t matching_rows = 0;       ///< nominal private count c_private
  double matching_sum = 0.0;      ///< h_private
  double complement_sum = 0.0;    ///< h_private^c
  double numeric_mean = 0.0;      ///< μ_p over all rows
  double numeric_variance = 0.0;  ///< σ_p² over all rows (population)
};

/// Computes QueryScanStats for `predicate` over `numeric_attribute`.
/// For count-only queries pass an empty `numeric_attribute`; the sums and
/// moments are then zero.
///
/// The scan is sharded per `exec` (common/thread_pool.h): each shard
/// accumulates its own partial stats, merged in shard index order, so for
/// a fixed table the result is identical at every thread count (the shard
/// layout depends only on the row count).
Result<QueryScanStats> ScanWithPredicate(const Table& table,
                                         const Predicate& predicate,
                                         const std::string& numeric_attribute,
                                         const ExecutionOptions& exec = {});

/// `SELECT group, count(1) FROM t WHERE where GROUP BY group_attribute`
/// — the one group-count kernel, behind the corrected GROUP BY (§8.3.4),
/// every Direct grouped form (GROUP BY, SELECT DISTINCT, COUNT(DISTINCT))
/// and the experiments' ground truth. Keys are the boxed group values of
/// the rows `where` matches, in Value order, present keys only: a NULL
/// group gets its own bucket (Value::Null()) and can never collide with a
/// genuine empty-string group; render keys with RenderSqlLiteral
/// (query/sql.h) for unambiguous display.
///
/// A string column counts dictionary codes into a code-indexed vector;
/// other columns count boxed values. Counts are integers, so the result
/// is the same for any row split: rows split into one range per thread
/// of `exec` (at most one per kRowsPerShard rows), which bounds the
/// count tables at threads × distinct values.
Result<std::map<Value, size_t>> GroupByCount(
    const Table& table, const std::string& group_attribute,
    const CompiledPredicate& where = CompiledPredicate::True(),
    const ExecutionOptions& exec = {});

}  // namespace privateclean

#endif  // PRIVATECLEAN_QUERY_AGGREGATE_H_
