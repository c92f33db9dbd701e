#include "core/sql_execution.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "common/arena.h"
#include "common/random.h"
#include "common/string_util.h"

namespace privateclean {

namespace {

bool IsExtensionAggregate(AggregateType agg) {
  return agg == AggregateType::kMedian || agg == AggregateType::kVar ||
         agg == AggregateType::kStd || agg == AggregateType::kPercentile;
}

std::string JoinAttributes(const std::vector<std::string>& attrs) {
  std::string out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += "'" + attrs[i] + "'";
  }
  return out;
}

Status NotAnswerable(const std::string& why) {
  return Status::FailedPrecondition("not privately answerable: " + why);
}

/// The distinct attributes `parsed` reads, sorted.
std::vector<std::string> ReadAttributes(const ParsedSql& parsed) {
  std::set<std::string> attrs;
  if (parsed.query.predicate.has_value()) {
    for (std::string& a : parsed.query.predicate->Attributes()) {
      attrs.insert(std::move(a));
    }
  }
  for (const std::string* a : {&parsed.query.numeric_attribute,
                               &parsed.distinct_attribute, &parsed.group_by}) {
    if (!a->empty()) attrs.insert(*a);
  }
  return {attrs.begin(), attrs.end()};
}

/// Corrected routing of a WHERE tree. A tree over one attribute, of any
/// boolean structure, is the corrected predicate as is: subset membership
/// M_pred is all the corrected estimators need. A pure conjunction over
/// exactly two attributes under COUNT splits into the §10 conjunctive
/// pair. Everything else is not privately answerable.
Status PlanCorrectedWhere(const Predicate& where, QueryPlan* plan) {
  std::vector<std::string> attrs = where.Attributes();
  if (attrs.size() == 1) return Status::OK();
  if (attrs.size() > 2) {
    return NotAnswerable("WHERE references " + std::to_string(attrs.size()) +
                         " attributes (" + JoinAttributes(attrs) +
                         "); the conjunctive estimator composes exactly two");
  }
  if (plan->query.agg != AggregateType::kCount) {
    return NotAnswerable(
        std::string("multi-attribute WHERE with ") +
        AggregateTypeToString(plan->query.agg) +
        "(...) — the conjunctive estimator is derived for COUNT only");
  }
  if (where.kind() != Predicate::Kind::kAnd) {
    return NotAnswerable(
        "OR/NOT across attributes " + JoinAttributes(attrs) +
        " — only an AND of two single-attribute condition groups has a "
        "derived estimator (the §10 conjunctive COUNT)");
  }
  std::vector<Predicate> group_a;
  std::vector<Predicate> group_b;
  for (const Predicate& child : where.children()) {
    std::vector<std::string> child_attrs = child.Attributes();
    if (child_attrs.size() != 1) {
      return NotAnswerable(
          "an AND operand mixes attributes " + JoinAttributes(child_attrs) +
          " — group each attribute's conditions so the WHERE is "
          "<conditions on one attribute> AND <conditions on the other>");
    }
    (child_attrs.front() == attrs.front() ? group_a : group_b)
        .push_back(child);
  }
  plan->query.predicate = Predicate::And(std::move(group_a));
  plan->conjunct = Predicate::And(std::move(group_b));
  return Status::OK();
}

Status RouteCorrected(const ParsedSql& parsed, QueryPlan* plan) {
  const AggregateType agg = parsed.query.agg;
  const std::string agg_name = ToUpperAscii(AggregateTypeToString(agg));
  if (parsed.count_distinct) {
    return NotAnswerable(
        "COUNT(DISTINCT " + parsed.distinct_attribute +
        ") — GRR spreads rows across the whole domain, so the nominal "
        "distinct count concentrates at the public domain size regardless "
        "of the data");
  }
  if (parsed.select_distinct) {
    return NotAnswerable(
        "SELECT DISTINCT " + parsed.distinct_attribute +
        " — under GRR nearly every domain value appears in the nominal "
        "relation, so the distinct set reflects the public domain, not "
        "the data (the Direct baseline reports the nominal set)");
  }
  if (agg == AggregateType::kMin || agg == AggregateType::kMax) {
    return NotAnswerable(
        agg_name + "(" + parsed.query.numeric_attribute +
        ") — extreme values are destroyed by randomization; no "
        "bias-corrected estimator exists (the Direct baseline reports the "
        "nominal extreme)");
  }
  if (!parsed.group_by.empty()) {
    if (parsed.query.predicate.has_value()) {
      return NotAnswerable(
          "GROUP BY with WHERE — the per-group correction (§8.3.4) is "
          "derived for whole-relation counts");
    }
    if (agg != AggregateType::kCount) {
      return NotAnswerable("GROUP BY with " + agg_name +
                           "(...) — the grouped estimator is derived for "
                           "COUNT only (§8.3.4)");
    }
    plan->route = QueryRoute::kGrouped;
    return Status::OK();
  }
  if (parsed.query.predicate.has_value()) {
    PCLEAN_RETURN_NOT_OK(PlanCorrectedWhere(*parsed.query.predicate, plan));
  }
  plan->route = plan->conjunct.has_value() ? QueryRoute::kConjunctive
                : IsExtensionAggregate(agg) ? QueryRoute::kExtension
                                            : QueryRoute::kCorrectedScalar;
  return Status::OK();
}

Status RouteDirect(const ParsedSql& parsed, QueryPlan* plan) {
  if (!parsed.group_by.empty() && parsed.query.agg != AggregateType::kCount) {
    return Status::InvalidArgument(
        "Direct GROUP BY supports COUNT only (got " +
        ToUpperAscii(AggregateTypeToString(parsed.query.agg)) + ")");
  }
  plan->route = plan->group_attribute.empty() ? QueryRoute::kDirectScalar
                                              : QueryRoute::kDirectGrouped;
  return Status::OK();
}

QueryResult PointResult(double value, EstimatorKind kind, size_t s) {
  QueryResult r;
  r.estimator = kind;
  r.estimate = value;
  r.nominal = value;
  r.ci = ConfidenceInterval{value, value};
  r.s = s;
  return r;
}

Result<SqlResultSet> Scalar(Result<QueryResult> r) {
  PCLEAN_RETURN_NOT_OK(r.status());
  SqlResultSet rs;
  rs.rows.push_back(SqlRow{std::nullopt, std::move(r).ValueOrDie()});
  return rs;
}

/// Corrected COUNT/SUM/AVG (§5–§7). Without a predicate the nominal value
/// is unbiased (§5.1) — GRR noise is zero-mean and randomized response
/// permutes within the relation — and the interval reflects the Laplace
/// noise added to the numeric attribute.
Result<QueryResult> CorrectedScalar(const PrivateTable& table,
                                    const AggregateQuery& query,
                                    const QueryOptions& options) {
  const Table& relation = table.relation();
  if (query.predicate.has_value()) {
    const std::string numeric =
        query.agg == AggregateType::kCount ? "" : query.numeric_attribute;
    PCLEAN_ASSIGN_OR_RETURN(
        EstimationInputs in,
        table.InputsForPredicate(*query.predicate, numeric, options));
    PCLEAN_ASSIGN_OR_RETURN(
        QueryScanStats stats,
        ScanWithPredicate(relation, *query.predicate, numeric, options.exec));
    switch (query.agg) {
      case AggregateType::kCount:
        return EstimateCount(stats, in);
      case AggregateType::kSum:
        return EstimateSum(stats, in);
      default:
        return EstimateAvg(stats, in);
    }
  }
  PCLEAN_ASSIGN_OR_RETURN(double nominal,
                          ExecuteAggregate(relation, query, options.exec));
  QueryResult r = PointResult(nominal, EstimatorKind::kPrivateClean,
                              relation.num_rows());
  r.confidence = options.confidence;
  double b = 0.0;
  if (auto it = table.metadata().numeric.find(query.numeric_attribute);
      it != table.metadata().numeric.end()) {
    b = it->second.b;
  }
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(options.confidence));
  double s = static_cast<double>(relation.num_rows());
  double half = 0.0;
  if (query.agg == AggregateType::kSum) {
    half = z * std::sqrt(2.0 * s * b * b);  // Var(Σ Laplace) = 2Sb².
  } else if (query.agg == AggregateType::kAvg) {
    half = (s > 0.0) ? z * std::sqrt(2.0 * b * b / s) : 0.0;
  }
  r.ci = ConfidenceInterval{nominal - half, nominal + half};
  return r;
}

/// §10 extension aggregates: the bootstrap replicate loop shards per
/// options.exec with a replicate-forked RNG stream, so the interval is
/// identical at every thread count.
Result<QueryResult> Extension(const PrivateTable& table,
                              const AggregateQuery& query,
                              const QueryOptions& options) {
  if (options.bootstrap_replicates > 0) {
    Rng rng(options.bootstrap_seed);
    return table.BootstrapExtendedAggregate(query, rng,
                                            options.bootstrap_replicates,
                                            options.confidence, options.exec);
  }
  PCLEAN_ASSIGN_OR_RETURN(double value,
                          table.ExtendedAggregate(query, options.exec));
  return PointResult(value, EstimatorKind::kPrivateClean, table.size());
}

Result<SqlResultSet> DirectGrouped(const PrivateTable& table,
                                   const QueryPlan& plan,
                                   const ExecutionOptions& exec) {
  const Table& relation = table.relation();
  std::vector<uint8_t> mask(relation.num_rows(), 1);
  if (plan.query.predicate.has_value()) {
    PCLEAN_ASSIGN_OR_RETURN(mask,
                            plan.query.predicate->Evaluate(relation, exec));
  }
  PCLEAN_ASSIGN_OR_RETURN(const Column* col,
                          relation.ColumnByName(plan.group_attribute));
  // Boxed keys: a NULL group is its own bucket, never the empty string.
  std::map<Value, size_t> counts;
  for (size_t r = 0; r < col->size(); ++r) {
    if (mask[r]) counts[col->ValueAt(r)]++;
  }
  if (plan.count_distinct) {
    return Scalar(PointResult(static_cast<double>(counts.size()),
                              EstimatorKind::kDirect, table.size()));
  }
  SqlResultSet rs;
  rs.grouped = true;
  rs.rows.reserve(counts.size());
  for (const auto& [key, n] : counts) {
    rs.rows.push_back(SqlRow{key, PointResult(static_cast<double>(n),
                                              EstimatorKind::kDirect,
                                              table.size())});
  }
  return rs;
}

Result<SqlResultSet> RunRoute(const PrivateTable& table,
                              const QueryPlan& plan,
                              const QueryOptions& options) {
  switch (plan.route) {
    case QueryRoute::kCorrectedScalar:
      return Scalar(CorrectedScalar(table, plan.query, options));
    case QueryRoute::kConjunctive:
      return Scalar(
          table.CountConjunctive(*plan.query.predicate, *plan.conjunct,
                                 options));
    case QueryRoute::kGrouped: {
      PCLEAN_ASSIGN_OR_RETURN(
          auto groups,
          table.GroupByCountEstimate(plan.group_attribute, options));
      SqlResultSet rs;
      rs.grouped = true;
      rs.rows.reserve(groups.size());
      for (auto& [key, result] : groups) {
        rs.rows.push_back(SqlRow{key, std::move(result)});
      }
      return rs;
    }
    case QueryRoute::kExtension:
      return Scalar(Extension(table, plan.query, options));
    case QueryRoute::kDirectScalar: {
      PCLEAN_ASSIGN_OR_RETURN(
          double value,
          ExecuteAggregate(table.relation(), plan.query, options.exec));
      return Scalar(PointResult(value, EstimatorKind::kDirect, table.size()));
    }
    case QueryRoute::kDirectGrouped:
      return DirectGrouped(table, plan, options.exec);
    case QueryRoute::kRejected:
      break;
  }
  return plan.status;
}

/// ORDER BY / LIMIT shaping of grouped rows. stable_sort keeps the
/// estimator's first-appearance order on ties, so shaping is
/// deterministic.
void ShapeRows(const QueryPlan& plan, std::vector<SqlRow>* rows) {
  if (plan.order_by.has_value()) {
    const SqlOrderBy order = *plan.order_by;
    std::stable_sort(
        rows->begin(), rows->end(), [order](const SqlRow& a, const SqlRow& b) {
          if (order.by_estimate) {
            return order.descending ? a.result.estimate > b.result.estimate
                                    : a.result.estimate < b.result.estimate;
          }
          return order.descending ? *b.group < *a.group : *a.group < *b.group;
        });
  }
  if (plan.limit.has_value() && rows->size() > *plan.limit) {
    rows->resize(*plan.limit);
  }
}

/// The scanned relation's footprint and the process-wide arena totals.
MemoryStats CurrentMemoryStats(const Table& relation) {
  ColumnMemory m = relation.MemoryUsage();
  ArenaSiteStats totals = ArenaProfiler::Totals();
  return MemoryStats{m.payload_bytes,      m.dictionary_bytes,
                     m.dictionary_entries, totals.live_bytes,
                     totals.peak_live_bytes, totals.alloc_calls};
}

Result<SqlResultSet> RunSql(const PrivateTable& table, const std::string& sql,
                            QueryMode mode, const QueryOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(ParsedSql parsed, ParseSql(sql));
  return ExecutePlan(table, PlanQuery(table, parsed, mode), options);
}

}  // namespace

QueryPlan PlanQuery(const PrivateTable& table, const ParsedSql& parsed,
                    QueryMode mode) {
  QueryPlan plan;
  plan.query = parsed.query;
  plan.group_attribute = parsed.distinct_attribute.empty()
                             ? parsed.group_by
                             : parsed.distinct_attribute;
  plan.count_distinct = parsed.count_distinct;
  plan.attributes = ReadAttributes(parsed);
  plan.order_by = parsed.order_by;
  plan.limit = parsed.limit;
  const std::string& relation = table.metadata().relation_name;
  if (!relation.empty() && parsed.table_name != relation) {
    plan.status = Status::NotFound("unknown relation '" + parsed.table_name +
                                   "' in FROM: this release serves relation '" +
                                   relation + "'");
  } else if (mode == QueryMode::kCorrected) {
    plan.status = RouteCorrected(parsed, &plan);
  } else {
    plan.status = RouteDirect(parsed, &plan);
  }
  if (!plan.status.ok()) plan.route = QueryRoute::kRejected;
  return plan;
}

Result<SqlResultSet> ExecutePlan(const PrivateTable& table,
                                 const QueryPlan& plan,
                                 const QueryOptions& options) {
  PCLEAN_RETURN_NOT_OK(plan.status);
  PCLEAN_ASSIGN_OR_RETURN(SqlResultSet rs, RunRoute(table, plan, options));
  ShapeRows(plan, &rs.rows);
  const MemoryStats memory = CurrentMemoryStats(table.relation());
  for (SqlRow& row : rs.rows) row.result.memory = memory;
  return rs;
}

Result<SqlResultSet> ExecuteSqlQuery(const PrivateTable& table,
                                     const std::string& sql,
                                     const QueryOptions& options) {
  return RunSql(table, sql, QueryMode::kCorrected, options);
}

Result<SqlResultSet> ExecuteSqlQueryDirect(const PrivateTable& table,
                                           const std::string& sql,
                                           const ExecutionOptions& exec) {
  QueryOptions options;
  options.exec = exec;
  return RunSql(table, sql, QueryMode::kDirect, options);
}

void RenderSqlResultText(const SqlResultSet& rs, bool direct,
                         double confidence, std::ostream& out) {
  if (rs.grouped) {
    // Group keys render as SQL literals, so NULL and '' stay distinct.
    for (const SqlRow& row : rs.rows) {
      out << RenderSqlLiteral(*row.group) << ": "
          << FormatDouble(row.result.estimate);
      if (!direct) {
        out << " CI: [" << FormatDouble(row.result.ci.lo) << ", "
            << FormatDouble(row.result.ci.hi) << "]";
      }
      out << "\n";
    }
    return;
  }
  if (direct) {
    out << "direct: " << FormatDouble(rs.rows.front().result.estimate)
        << "\n";
    return;
  }
  const QueryResult& r = rs.rows.front().result;
  out << "estimate: " << FormatDouble(r.estimate) << "\n";
  if (r.ci.Width() > 0.0) {
    out << FormatDouble(confidence * 100) << "% CI: ["
        << FormatDouble(r.ci.lo) << ", " << FormatDouble(r.ci.hi) << "]\n";
  }
  if (r.replicates_requested > 0) {
    // Degenerate resamples drop out of the interval; surface the count
    // so a thinned interval is visible to the analyst.
    out << "bootstrap replicates: " << r.replicates_effective << "/"
        << r.replicates_requested << "\n";
  }
}

}  // namespace privateclean
