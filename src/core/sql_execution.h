#ifndef PRIVATECLEAN_CORE_SQL_EXECUTION_H_
#define PRIVATECLEAN_CORE_SQL_EXECUTION_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/private_table.h"
#include "query/sql.h"

namespace privateclean {

/// One output row of a SQL query. Scalar queries produce a single row
/// with no group key; grouped queries (GROUP BY / SELECT DISTINCT) one
/// row per group with the boxed key (a NULL group is Value::Null(),
/// distinct from the empty string — render with RenderSqlLiteral).
struct SqlRow {
  std::optional<Value> group;
  QueryResult result;
};

/// The full result of a SQL query after ORDER BY / LIMIT shaping.
struct SqlResultSet {
  bool grouped = false;
  std::vector<SqlRow> rows;
};

/// Which estimator family answers a query: the bias-corrected
/// PrivateClean estimators, or the Direct baseline (nominal values off
/// the private relation, no re-weighting, degenerate intervals).
enum class QueryMode { kCorrected, kDirect };

/// How a planned query is answered.
enum class QueryRoute {
  kRejected,         ///< No estimator answers it; QueryPlan::status says why.
  kCorrectedScalar,  ///< COUNT/SUM/AVG, one single-attribute predicate
                     ///< (§5–§7).
  kConjunctive,      ///< COUNT over two single-attribute predicates (§10).
  kGrouped,          ///< Corrected COUNT per group of GROUP BY (§8.3.4).
  kExtension,        ///< MEDIAN/VAR/STD/PERCENTILE, point or bootstrap (§10).
  kDirectScalar,     ///< Nominal aggregate under the compiled WHERE mask.
  kDirectGrouped,    ///< Nominal masked group counts: GROUP BY, DISTINCT,
                     ///< COUNT(DISTINCT).
};

/// The one decision of how a query is priced and answered. Admission
/// prices `attributes`; ExecutePlan runs `route`. Nothing else re-derives
/// a route from the SQL.
///
/// Corrected routes (PlanQuery with QueryMode::kCorrected):
///   kCorrectedScalar — any WHERE tree over one attribute is the corrected
///     predicate as is (the estimators only need its matching-value set
///     M_pred);
///   kConjunctive     — COUNT under an AND of two single-attribute
///     condition groups;
///   kGrouped         — GROUP BY <attr> on a bare COUNT;
///   kExtension       — MEDIAN/VAR/STD/PERCENTILE (predicate applied
///     nominally); a bootstrap interval when
///     QueryOptions::bootstrap_replicates > 0.
/// Forms with no bias-corrected estimator are kRejected with
/// FailedPrecondition("not privately answerable: ...") naming the form:
/// MIN/MAX, SELECT DISTINCT, COUNT(DISTINCT), GROUP BY with WHERE or a
/// non-COUNT aggregate, WHERE trees over three or more attributes, and
/// two-attribute trees other than an AND under COUNT.
///
/// Direct routes (QueryMode::kDirect) compile the same WHERE tree to a
/// vectorized mask, so any tree over any attributes is answered:
///   kDirectScalar  — every aggregate, MIN/MAX included, through
///     ExecuteAggregate (whose NULL semantics apply: COUNT counts rows,
///     SUM/AVG/... read non-NULL values, and a selection whose numeric
///     values are all NULL is a FailedPrecondition, never 0);
///   kDirectGrouped — GROUP BY / SELECT DISTINCT rows carry the nominal
///     masked group counts; COUNT(DISTINCT) is the number of such groups.
///     Direct GROUP BY is COUNT-only (other aggregates are kRejected
///     with InvalidArgument).
///
/// In both modes a FROM name other than the relation the table was
/// opened as is kRejected with NotFound naming both (a release answers
/// to its MANIFEST `relation:` name; unnamed in-process tables accept
/// any spelling). That is the only NotFound a plan carries: unknown
/// attributes surface when the route runs.
struct QueryPlan {
  QueryRoute route = QueryRoute::kRejected;
  Status status;  ///< OK unless kRejected.

  /// Aggregate, argument and WHERE tree. kConjunctive splits the tree:
  /// `query.predicate` holds the first attribute's conditions and
  /// `conjunct` the second's. Every other route keeps the tree as parsed.
  AggregateQuery query;
  std::optional<Predicate> conjunct;  ///< kConjunctive's second predicate.

  /// GROUP BY / DISTINCT / COUNT(DISTINCT) attribute; empty otherwise.
  std::string group_attribute;
  bool count_distinct = false;  ///< kDirectGrouped reduces to a count.

  /// Every distinct attribute the query reads — WHERE, the aggregate's
  /// argument, GROUP BY, DISTINCT — in sorted order. Filled for every
  /// plan, rejected ones included: admission prices a query before the
  /// estimators decline it.
  std::vector<std::string> attributes;

  std::optional<SqlOrderBy> order_by;  ///< Grouped-row shaping.
  std::optional<uint64_t> limit;
};

/// Plans `parsed` against `table` in `mode`. Never fails: a query no
/// route answers comes back kRejected with its typed status.
QueryPlan PlanQuery(const PrivateTable& table, const ParsedSql& parsed,
                    QueryMode mode);

/// Checks the options a plan's route reads, before anything runs: the
/// corrected COUNT/SUM/AVG, conjunctive and grouped routes need
/// `confidence` in (0, 1); a bootstrapped extension aggregate needs at
/// least 10 replicates and a confidence in (0, 1). Admission calls it
/// before charging, so a query these options would fail costs no ε.
Status ValidateQueryOptions(const QueryPlan& plan, const QueryOptions& options);

/// Runs a plan: the route's estimator, ORDER BY / LIMIT shaping, and the
/// memory accounting every result row carries. A rejected plan returns
/// its status, and options ValidateQueryOptions refuses return its
/// status. Threading per `options.exec`; results are identical at every
/// thread count.
Result<SqlResultSet> ExecutePlan(const PrivateTable& table,
                                 const QueryPlan& plan,
                                 const QueryOptions& options);

/// Parses, plans (QueryMode::kCorrected) and runs a SQL query with the
/// PrivateClean estimators:
///
///   ExecuteSqlQuery(pt, "SELECT count(1) FROM r WHERE major >= 'M'")
Result<SqlResultSet> ExecuteSqlQuery(const PrivateTable& table,
                                     const std::string& sql,
                                     const QueryOptions& options = QueryOptions());

/// The Direct-baseline counterpart (QueryMode::kDirect).
Result<SqlResultSet> ExecuteSqlQueryDirect(const PrivateTable& table,
                                           const std::string& sql,
                                           const ExecutionOptions& exec = {});

/// Renders a result set exactly as `pclean query` prints it. The CLI
/// and the server's RESULT payload both call this one function — that
/// shared body, not a pair of look-alike loops, is what makes a served
/// answer byte-identical to a local one. `direct` selects the
/// Direct-baseline rendering (no intervals); `confidence` is the level
/// the scalar CI line names.
void RenderSqlResultText(const SqlResultSet& rs, bool direct,
                         double confidence, std::ostream& out);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_SQL_EXECUTION_H_
