#include "core/private_table.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/sql_execution.h"
#include "privacy/allocation.h"

namespace privateclean {

Result<PrivateTable> PrivateTable::Create(const Table& original,
                                          const GrrParams& params,
                                          const GrrOptions& options,
                                          Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(GrrOutput grr, ApplyGrr(original, params, options, rng));
  PrivateTable table;
  table.relation_ = std::move(grr.table);
  table.metadata_ = std::move(grr.metadata);
  // Anchor provenance in the randomization-time domains so N matches the
  // mechanism exactly.
  std::unordered_map<std::string, Domain> domains;
  for (const auto& [name, meta] : table.metadata_.discrete) {
    domains.emplace(name, meta.domain);
  }
  PCLEAN_ASSIGN_OR_RETURN(table.provenance_,
                          ProvenanceManager::Create(table.relation_, domains));
  return table;
}

Result<PrivateTable> PrivateTable::CreateWithTuning(const Table& original,
                                                    double max_count_error,
                                                    double confidence,
                                                    Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(
      TuningResult tuning,
      TunePrivacyParameters(original, max_count_error, confidence));
  return Create(original, ToGrrParams(tuning), GrrOptions{}, rng);
}

Result<PrivateTable> PrivateTable::CreateWithEpsilonBudget(
    const Table& original, double total_epsilon, Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(GrrParams params,
                          AllocateEpsilonBudget(original, total_epsilon));
  return Create(original, params, GrrOptions{}, rng);
}

Result<PrivateTable> PrivateTable::FromPrivateRelation(
    Table relation, PrivateRelationMetadata metadata) {
  const Schema& schema = relation.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    bool covered = field.kind == AttributeKind::kDiscrete
                       ? metadata.discrete.count(field.name) > 0
                       : metadata.numeric.count(field.name) > 0;
    if (!covered) {
      return Status::InvalidArgument(
          "metadata does not cover attribute '" + field.name + "'");
    }
  }
  PrivateTable table;
  table.relation_ = std::move(relation);
  table.metadata_ = std::move(metadata);
  table.metadata_.dataset_size = table.relation_.num_rows();
  std::unordered_map<std::string, Domain> domains;
  for (const auto& [name, meta] : table.metadata_.discrete) {
    domains.emplace(name, meta.domain);
  }
  PCLEAN_ASSIGN_OR_RETURN(table.provenance_,
                          ProvenanceManager::Create(table.relation_, domains));
  return table;
}

Status PrivateTable::Clean(const Cleaner& cleaner) {
  PCLEAN_RETURN_NOT_OK(cleaner.Apply(&relation_));
  if (auto extracted = cleaner.extracted_attribute(); extracted.has_value()) {
    PCLEAN_RETURN_NOT_OK(provenance_.RegisterDerivedAttribute(
        extracted->name, extracted->provenance_anchor));
  }
  graph_cache_.clear();  // Cleaning changes the dirty->clean mapping.
  return Status::OK();
}

Result<const ProvenanceGraph*> PrivateTable::CachedGraphFor(
    const std::string& attribute, const ExecutionOptions& exec) const {
  if (auto it = graph_cache_.find(attribute); it != graph_cache_.end()) {
    return &it->second;
  }
  PCLEAN_ASSIGN_OR_RETURN(ProvenanceGraph graph,
                          provenance_.GraphFor(relation_, attribute, exec));
  auto [it, inserted] = graph_cache_.emplace(attribute, std::move(graph));
  (void)inserted;
  return &it->second;
}

Result<ProvenanceGraph> PrivateTable::ProvenanceFor(
    const std::string& attribute, const ExecutionOptions& exec) const {
  PCLEAN_ASSIGN_OR_RETURN(const ProvenanceGraph* graph,
                          CachedGraphFor(attribute, exec));
  return *graph;  // Copy: callers own their snapshot.
}

Status PrivateTable::Clean(const CleaningPipeline& pipeline) {
  for (size_t i = 0; i < pipeline.size(); ++i) {
    Status st = Clean(pipeline.cleaner(i));
    if (!st.ok()) {
      return Status::Internal("pipeline stage " + std::to_string(i) + " (" +
                              pipeline.cleaner(i).name() +
                              ") failed: " + st.ToString());
    }
  }
  return Status::OK();
}

Result<EstimationInputs> PrivateTable::BaseInputsFor(
    const std::string& attr, const QueryOptions& options,
    const ProvenanceGraph** graph) const {
  if (metadata_.numeric.count(attr) > 0) {
    return Status::FailedPrecondition(
        "not privately answerable: predicate on numeric attribute '" + attr +
        "' — the bias correction needs a discrete randomized attribute "
        "(Laplace-noised numerics have no transition matrix); use the Direct "
        "baseline or a predicate on a discrete attribute");
  }
  PCLEAN_ASSIGN_OR_RETURN(std::string anchor, provenance_.AnchorOf(attr));
  auto meta_it = metadata_.discrete.find(anchor);
  if (meta_it == metadata_.discrete.end()) {
    return Status::FailedPrecondition(
        "attribute '" + attr +
        "' is not backed by a randomized discrete attribute");
  }
  PCLEAN_ASSIGN_OR_RETURN(*graph, CachedGraphFor(attr, options.exec));
  EstimationInputs in;
  PCLEAN_ASSIGN_OR_RETURN(in.mechanism, MechanismFor(meta_it->second));
  PCLEAN_ASSIGN_OR_RETURN(
      in.p,
      in.mechanism->ReplacementProbability(meta_it->second.domain.size()));
  in.n = static_cast<double>((*graph)->num_dirty_values());
  in.confidence = options.confidence;
  return in;
}

namespace {

/// l, the dirty-side selectivity of M_pred: the weighted provenance cut
/// (PC-W, §7.2) or the unweighted vertex count (PC-U, §6.3).
double Selectivity(const ProvenanceGraph& graph,
                   const std::vector<Value>& m_pred,
                   const QueryOptions& options) {
  return options.weighted_cut
             ? graph.WeightedSelectivity(m_pred)
             : static_cast<double>(graph.UnweightedSelectivity(m_pred));
}

}  // namespace

Result<EstimationInputs> PrivateTable::InputsForPredicate(
    const Predicate& predicate, const std::string& numeric_attribute,
    const QueryOptions& options) const {
  const ProvenanceGraph* graph = nullptr;
  PCLEAN_ASSIGN_OR_RETURN(
      EstimationInputs in,
      BaseInputsFor(predicate.attribute(), options, &graph));
  in.l = Selectivity(
      *graph, predicate.MatchingValues(graph->clean_domain()), options);
  if (!numeric_attribute.empty()) {
    if (auto it = metadata_.numeric.find(numeric_attribute);
        it != metadata_.numeric.end()) {
      in.b = it->second.b;
    }
  }
  return in;
}

Result<QueryResult> PrivateTable::CountConjunctive(
    const Predicate& cond_a, const Predicate& cond_b,
    const QueryOptions& options) const {
  PCLEAN_ASSIGN_OR_RETURN(EstimationInputs in_a,
                          InputsForPredicate(cond_a, "", options));
  PCLEAN_ASSIGN_OR_RETURN(EstimationInputs in_b,
                          InputsForPredicate(cond_b, "", options));
  PCLEAN_ASSIGN_OR_RETURN(
      ConjunctiveScanStats stats,
      ScanConjunctive(relation_, cond_a, cond_b, options.exec));
  return EstimateConjunctiveCount(stats, in_a, in_b);
}

Result<std::vector<std::pair<Value, QueryResult>>>
PrivateTable::GroupByCountEstimate(const std::string& attribute,
                                   const QueryOptions& options) const {
  const ProvenanceGraph* graph = nullptr;
  PCLEAN_ASSIGN_OR_RETURN(EstimationInputs base,
                          BaseInputsFor(attribute, options, &graph));
  // One sharded pass: nominal count per clean value. Each shard owns a
  // full count vector; vectors add up in shard index order (integer
  // sums, so the merge order is immaterial — kept for uniformity with
  // the other sharded paths).
  PCLEAN_ASSIGN_OR_RETURN(const Column* col,
                          relation_.ColumnByName(attribute));
  const Domain& clean_domain = graph->clean_domain();
  const size_t shards = ShardCountForRows(col->size());
  std::vector<std::vector<size_t>> partial_counts(
      shards, std::vector<size_t>(clean_domain.size(), 0));
  if (col->type() == ValueType::kString) {
    // Dictionary fast path: resolve each distinct value against the
    // clean domain once, then count codes with vector indexing. Rows can
    // only carry codes whose value is in the clean domain (it was built
    // from this column); unused dictionary entries map to a sentinel no
    // row references.
    const StringDictionary& dict = col->dictionary();
    const size_t null_slot = dict.size();
    std::vector<size_t> slot_index(dict.size() + 1, SIZE_MAX);
    for (uint32_t c = 0; c < dict.size(); ++c) {
      auto idx = clean_domain.IndexOf(Value(std::string(dict.At(c))));
      if (idx.ok()) slot_index[c] = *idx;
    }
    if (auto idx = clean_domain.IndexOf(Value::Null()); idx.ok()) {
      slot_index[null_slot] = *idx;
    }
    const uint32_t* codes = col->codes().data();
    PCLEAN_RETURN_NOT_OK(ParallelFor(
        col->size(), shards, options.exec,
        [&](size_t shard, size_t begin, size_t end) -> Status {
          std::vector<size_t>& counts = partial_counts[shard];
          for (size_t r = begin; r < end; ++r) {
            size_t slot = codes[r] == kNullCode ? null_slot : codes[r];
            PCLEAN_CHECK(slot_index[slot] != SIZE_MAX);
            ++counts[slot_index[slot]];
          }
          return Status::OK();
        }));
  } else {
    PCLEAN_RETURN_NOT_OK(ParallelFor(
        col->size(), shards, options.exec,
        [&](size_t shard, size_t begin, size_t end) -> Status {
          std::vector<size_t>& counts = partial_counts[shard];
          for (size_t r = begin; r < end; ++r) {
            ++counts[clean_domain.IndexOf(col->ValueAt(r)).ValueOrDie()];
          }
          return Status::OK();
        }));
  }
  std::vector<size_t> counts(clean_domain.size(), 0);
  for (const std::vector<size_t>& partial : partial_counts) {
    for (size_t i = 0; i < partial.size(); ++i) counts[i] += partial[i];
  }
  std::vector<std::pair<Value, QueryResult>> groups;
  groups.reserve(clean_domain.size());
  for (size_t i = 0; i < clean_domain.size(); ++i) {
    EstimationInputs in = base;
    in.l = Selectivity(*graph, {clean_domain.value(i)}, options);
    QueryScanStats stats;
    stats.total_rows = relation_.num_rows();
    stats.matching_rows = counts[i];
    PCLEAN_ASSIGN_OR_RETURN(QueryResult r, EstimateCount(stats, in));
    groups.emplace_back(clean_domain.value(i), std::move(r));
  }
  return groups;
}

namespace {

/// Plans `query` exactly as the SQL layer plans its parsed form and
/// returns the plan's single result row. The §10 extension route has its
/// own entry points (ExtendedAggregate, BootstrapExtendedAggregate).
Result<QueryResult> RunAggregatePlan(const PrivateTable& table,
                                     const AggregateQuery& query,
                                     QueryMode mode,
                                     const QueryOptions& options) {
  ParsedSql parsed;
  parsed.table_name = table.metadata().relation_name;
  parsed.query = query;
  const QueryPlan plan = PlanQuery(table, parsed, mode);
  if (plan.route == QueryRoute::kExtension) {
    return Status::InvalidArgument(
        "Execute supports sum/count/avg; use ExtendedAggregate for " +
        std::string(AggregateTypeToString(query.agg)));
  }
  PCLEAN_ASSIGN_OR_RETURN(SqlResultSet rs, ExecutePlan(table, plan, options));
  return std::move(rs.rows.front().result);
}

}  // namespace

Result<QueryResult> PrivateTable::Execute(const AggregateQuery& query,
                                          const QueryOptions& options) const {
  return RunAggregatePlan(*this, query, QueryMode::kCorrected, options);
}

Result<QueryResult> PrivateTable::ExecuteDirect(
    const AggregateQuery& query, const QueryOptions& options) const {
  return RunAggregatePlan(*this, query, QueryMode::kDirect, options);
}

namespace {

/// Shared implementation of the §10 extension aggregates on an arbitrary
/// table (used by both the point estimate and the bootstrap replicates).
Result<double> ExtendedAggregateOnTable(const Table& table,
                                        const AggregateQuery& query,
                                        double b,
                                        const ExecutionOptions& exec) {
  switch (query.agg) {
    case AggregateType::kMedian:
    case AggregateType::kPercentile:
      // Laplace noise has zero median; the nominal value is a consistent
      // estimate (§10).
      return ExecuteAggregate(table, query, exec);
    case AggregateType::kVar:
    case AggregateType::kStd: {
      PCLEAN_ASSIGN_OR_RETURN(
          double nominal_var,
          ExecuteAggregate(table,
                           AggregateQuery{AggregateType::kVar,
                                          query.numeric_attribute,
                                          query.predicate, 50.0},
                           exec));
      // var(x + noise) = var(x) + 2b² for independent noise (§10).
      double corrected = std::max(0.0, nominal_var - 2.0 * b * b);
      return query.agg == AggregateType::kVar ? corrected
                                              : std::sqrt(corrected);
    }
    default:
      return Status::InvalidArgument(
          "ExtendedAggregate handles median/percentile/var/std; use "
          "Execute for sum/count/avg");
  }
}

}  // namespace

Result<double> PrivateTable::NoiseScaleFor(
    const std::string& numeric_attribute) const {
  if (auto it = metadata_.numeric.find(numeric_attribute);
      it != metadata_.numeric.end()) {
    return it->second.b;  // b == 0 means "covered but un-noised".
  }
  if (!relation_.schema().FieldByName(numeric_attribute).ok()) {
    return Status::InvalidArgument(
        "extended aggregate attribute '" + numeric_attribute +
        "' does not exist in the private relation");
  }
  // Present in the relation but outside the Laplace metadata (e.g. a
  // discrete column): no noise was added, so no correction applies.
  return 0.0;
}

Result<double> PrivateTable::ExtendedAggregate(
    const AggregateQuery& query, const ExecutionOptions& exec) const {
  PCLEAN_ASSIGN_OR_RETURN(double b, NoiseScaleFor(query.numeric_attribute));
  return ExtendedAggregateOnTable(relation_, query, b, exec);
}

Result<QueryResult> PrivateTable::BootstrapExtendedAggregate(
    const AggregateQuery& query, Rng& rng, size_t replicates,
    double confidence, const ExecutionOptions& exec) const {
  if (replicates < 10) {
    return Status::InvalidArgument("need at least 10 bootstrap replicates");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  const size_t rows = relation_.num_rows();
  if (rows == 0) {
    return Status::FailedPrecondition(
        "cannot bootstrap an empty private relation");
  }
  PCLEAN_ASSIGN_OR_RETURN(double point, ExtendedAggregate(query, exec));
  PCLEAN_ASSIGN_OR_RETURN(double b, NoiseScaleFor(query.numeric_attribute));

  // One RNG stream per replicate, forked in replicate-index order (the
  // shard-indexed scheme of ApplyGrr, at replicate granularity): stream
  // assignment depends only on the replicate count, never on the thread
  // count or on how many replicates turn out degenerate.
  std::vector<Rng> replicate_rngs = rng.ForkStreams(replicates);
  std::vector<double> values(replicates, 0.0);
  std::vector<uint8_t> succeeded(replicates, 0);
  const size_t shards = ShardCountForCoarseItems(replicates);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      replicates, shards, exec,
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
          PCLEAN_ASSIGN_OR_RETURN(Table resampled, relation_.Take(indices));
          auto value =
              ExtendedAggregateOnTable(resampled, query, b, ExecutionOptions{});
          if (!value.ok()) continue;  // Degenerate resample (e.g. empty group).
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
  // At least half of the requested replicates must survive, rounding the
  // threshold *up* for odd counts (2·size < replicates ⇔ size < ⌈replicates/2⌉).
  if (2 * replicate_values.size() < replicates) {
    return Status::FailedPrecondition(
        "too many degenerate bootstrap replicates: " +
        std::to_string(replicate_values.size()) + " of " +
        std::to_string(replicates) + " succeeded");
  }
  const size_t effective = replicate_values.size();
  double alpha = (1.0 - confidence) / 2.0;
  PCLEAN_ASSIGN_OR_RETURN(
      PercentileEndpoints endpoints,
      PercentilePair(std::move(replicate_values), 100.0 * alpha,
                     100.0 * (1.0 - alpha)));
  QueryResult result;
  result.estimator = EstimatorKind::kPrivateClean;
  result.estimate = point;
  result.ci = ConfidenceInterval{endpoints.lo, endpoints.hi};
  result.confidence = confidence;
  result.nominal = point;
  result.s = rows;
  result.replicates_requested = replicates;
  result.replicates_effective = effective;
  return result;
}

}  // namespace privateclean
