#include "core/sql_execution.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <utility>

#include "common/arena.h"
#include "common/random.h"
#include "common/statistics.h"
#include "common/string_util.h"
#include "core/conjunctive.h"

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

/// Laplace scale b of a numeric attribute; 0 — no noise, so no
/// correction — for an attribute outside the Laplace metadata.
double NoiseScale(const PrivateTable& table, const std::string& attribute) {
  auto it = table.metadata().numeric.find(attribute);
  return it == table.metadata().numeric.end() ? 0.0 : it->second.b;
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
  const double b = NoiseScale(table, query.numeric_attribute);
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

/// §10 conjunctive COUNT over two single-attribute predicates on
/// different attributes: the per-attribute correction constants compose
/// via the Kronecker product of the transition matrices, and both
/// selectivities are provenance-adjusted, so it holds after cleaning.
Result<QueryResult> Conjunctive(const PrivateTable& table,
                                const QueryPlan& plan,
                                const QueryOptions& options) {
  const Predicate& cond_a = *plan.query.predicate;
  const Predicate& cond_b = *plan.conjunct;
  PCLEAN_ASSIGN_OR_RETURN(EstimationInputs in_a,
                          table.InputsForPredicate(cond_a, "", options));
  PCLEAN_ASSIGN_OR_RETURN(EstimationInputs in_b,
                          table.InputsForPredicate(cond_b, "", options));
  PCLEAN_ASSIGN_OR_RETURN(
      ConjunctiveScanStats stats,
      ScanConjunctive(table.relation(), cond_a, cond_b, options.exec));
  return EstimateConjunctiveCount(stats, in_a, in_b);
}

/// Corrected COUNT per group of GROUP BY <attr> (§8.3.4): one estimate
/// per value of the attribute's clean domain, in clean-domain order,
/// zero-count groups included.
Result<SqlResultSet> CorrectedGrouped(const PrivateTable& table,
                                      const std::string& attribute,
                                      const QueryOptions& options) {
  // The attribute's p, N and confidence; M_pred = ∅ here, so l = 0 until
  // each group sets its own.
  PCLEAN_ASSIGN_OR_RETURN(
      EstimationInputs base,
      table.InputsForPredicate(Predicate::In(attribute, {}), "", options));
  PCLEAN_ASSIGN_OR_RETURN(const ProvenanceGraph* graph,
                          table.ProvenanceFor(attribute, options.exec));
  PCLEAN_ASSIGN_OR_RETURN(
      auto counts, GroupByCount(table.relation(), attribute,
                                CompiledPredicate::True(), options.exec));
  const Domain& clean_domain = graph->clean_domain();
  SqlResultSet rs;
  rs.grouped = true;
  rs.rows.reserve(clean_domain.size());
  for (const Value& key : clean_domain.values()) {
    EstimationInputs in = base;
    in.l = options.weighted_cut
               ? graph->WeightedSelectivity({key})
               : static_cast<double>(graph->UnweightedSelectivity({key}));
    QueryScanStats stats;
    stats.total_rows = table.size();
    auto it = counts.find(key);
    stats.matching_rows = it == counts.end() ? 0 : it->second;
    PCLEAN_ASSIGN_OR_RETURN(QueryResult r, EstimateCount(stats, in));
    rs.rows.push_back(SqlRow{key, std::move(r)});
  }
  return rs;
}

/// A §10 extension aggregate of `table` with Laplace scale `b`: median
/// and percentile pass through (Laplace noise has zero median); var/std
/// subtract the noise variance 2b². Shared by the point estimate and the
/// bootstrap replicates.
Result<double> ExtensionOnTable(const Table& table,
                                const AggregateQuery& query, double b,
                                const ExecutionOptions& exec) {
  if (query.agg == AggregateType::kMedian ||
      query.agg == AggregateType::kPercentile) {
    return ExecuteAggregate(table, query, exec);
  }
  PCLEAN_ASSIGN_OR_RETURN(
      double nominal_var,
      ExecuteAggregate(table,
                       AggregateQuery{AggregateType::kVar,
                                      query.numeric_attribute,
                                      query.predicate, 50.0},
                       exec));
  // var(x + noise) = var(x) + 2b² for independent noise (§10).
  double corrected = std::max(0.0, nominal_var - 2.0 * b * b);
  return query.agg == AggregateType::kVar ? corrected : std::sqrt(corrected);
}

/// The bootstrap percentile interval (§10: the extension aggregates need
/// "an empirical method") around `point`, at options.confidence over
/// options.bootstrap_replicates resamples of the relation's rows with
/// replacement. One RNG stream is forked per replicate from
/// options.bootstrap_seed in replicate-index order, and replicate values
/// merge in replicate order, so the interval is bit-identical at every
/// thread count. Degenerate resamples (e.g. an empty selection) are
/// dropped and counted in replicates_effective; at least half of the
/// replicates (rounding up) must survive, or FailedPrecondition.
Result<QueryResult> Bootstrap(const Table& relation,
                              const AggregateQuery& query, double b,
                              double point, const QueryOptions& options) {
  const size_t rows = relation.num_rows();
  const size_t replicates = options.bootstrap_replicates;
  // Streams depend only on the replicate count, never on the thread
  // count or on how many replicates turn out degenerate.
  std::vector<Rng> replicate_rngs =
      Rng(options.bootstrap_seed).ForkStreams(replicates);
  std::vector<double> values(replicates, 0.0);
  std::vector<uint8_t> succeeded(replicates, 0);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      replicates, ShardCountForCoarseItems(replicates), options.exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        // One resample index buffer per shard, reused across its
        // replicates. Replicates run their row passes inline (default
        // ExecutionOptions): the replicate axis is already parallel.
        std::vector<size_t> indices(rows);
        for (size_t rep = begin; rep < end; ++rep) {
          Rng& rep_rng = replicate_rngs[rep];
          for (size_t i = 0; i < rows; ++i) {
            indices[i] = static_cast<size_t>(rep_rng.UniformInt(rows));
          }
          PCLEAN_ASSIGN_OR_RETURN(Table resampled, relation.Take(indices));
          auto value = ExtensionOnTable(resampled, query, b, {});
          if (!value.ok()) continue;  // Degenerate resample.
          values[rep] = *value;
          succeeded[rep] = 1;
        }
        return Status::OK();
      }));

  // Merge surviving replicate values in replicate order.
  std::vector<double> replicate_values;
  replicate_values.reserve(replicates);
  for (size_t rep = 0; rep < replicates; ++rep) {
    if (succeeded[rep]) replicate_values.push_back(values[rep]);
  }
  // At least half must survive, rounding the threshold *up* for odd
  // counts (2·size < replicates ⇔ size < ⌈replicates/2⌉).
  if (2 * replicate_values.size() < replicates) {
    return Status::FailedPrecondition(
        "too many degenerate bootstrap replicates: " +
        std::to_string(replicate_values.size()) + " of " +
        std::to_string(replicates) + " succeeded");
  }
  const size_t effective = replicate_values.size();
  const double alpha = (1.0 - options.confidence) / 2.0;
  PCLEAN_ASSIGN_OR_RETURN(
      PercentileEndpoints endpoints,
      PercentilePair(std::move(replicate_values), 100.0 * alpha,
                     100.0 * (1.0 - alpha)));
  QueryResult result = PointResult(point, EstimatorKind::kPrivateClean, rows);
  result.ci = ConfidenceInterval{endpoints.lo, endpoints.hi};
  result.confidence = options.confidence;
  result.replicates_requested = replicates;
  result.replicates_effective = effective;
  return result;
}

/// §10 extension aggregates (MEDIAN/PERCENTILE/VAR/STD): the point
/// estimate, wrapped in the bootstrap interval when
/// options.bootstrap_replicates > 0. The predicate applies nominally (no
/// selectivity correction). Caveat: the median pass-through is exact
/// only for distributions roughly symmetric around their median — on
/// heavily skewed marginals the noised median shifts toward the heavy
/// tail.
Result<QueryResult> Extension(const PrivateTable& table,
                              const AggregateQuery& query,
                              const QueryOptions& options) {
  const Table& relation = table.relation();
  const size_t replicates = options.bootstrap_replicates;
  if (replicates > 0 && relation.num_rows() == 0) {
    return Status::FailedPrecondition(
        "cannot bootstrap an empty private relation");
  }
  // An attribute outside the Laplace metadata carries no noise (b = 0, a
  // documented no-op correction) — but it must exist: a typo would
  // otherwise surface only as a generic scan error.
  if (table.metadata().numeric.count(query.numeric_attribute) == 0 &&
      !relation.schema().FieldByName(query.numeric_attribute).ok()) {
    return Status::InvalidArgument(
        "extended aggregate attribute '" + query.numeric_attribute +
        "' does not exist in the private relation");
  }
  const double b = NoiseScale(table, query.numeric_attribute);
  PCLEAN_ASSIGN_OR_RETURN(double point,
                          ExtensionOnTable(relation, query, b, options.exec));
  if (replicates == 0) {
    return PointResult(point, EstimatorKind::kPrivateClean, table.size());
  }
  return Bootstrap(relation, query, b, point, options);
}

/// Nominal masked group counts: GROUP BY and SELECT DISTINCT rows in
/// Value order (present keys only), or their number for COUNT(DISTINCT).
Result<SqlResultSet> DirectGrouped(const PrivateTable& table,
                                   const QueryPlan& plan,
                                   const ExecutionOptions& exec) {
  const Table& relation = table.relation();
  CompiledPredicate where = CompiledPredicate::True();
  if (plan.query.predicate.has_value()) {
    PCLEAN_ASSIGN_OR_RETURN(
        where, CompiledPredicate::Compile(relation, *plan.query.predicate));
  }
  PCLEAN_ASSIGN_OR_RETURN(
      auto counts, GroupByCount(relation, plan.group_attribute, where, exec));
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
      return Scalar(Conjunctive(table, plan, options));
    case QueryRoute::kGrouped:
      return CorrectedGrouped(table, plan.group_attribute, options);
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

Status ValidateQueryOptions(const QueryPlan& plan,
                            const QueryOptions& options) {
  const bool interval = plan.route == QueryRoute::kCorrectedScalar ||
                        plan.route == QueryRoute::kConjunctive ||
                        plan.route == QueryRoute::kGrouped;
  const bool bootstrap = plan.route == QueryRoute::kExtension &&
                         options.bootstrap_replicates > 0;
  if (bootstrap && options.bootstrap_replicates < 10) {
    return Status::InvalidArgument("bootstrap needs >= 10 replicates (got " +
                                   std::to_string(options.bootstrap_replicates) +
                                   ")");
  }
  if ((interval || bootstrap) &&
      !(options.confidence > 0.0 && options.confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  return Status::OK();
}

Result<SqlResultSet> ExecutePlan(const PrivateTable& table,
                                 const QueryPlan& plan,
                                 const QueryOptions& options) {
  PCLEAN_RETURN_NOT_OK(plan.status);
  PCLEAN_RETURN_NOT_OK(ValidateQueryOptions(plan, options));
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
