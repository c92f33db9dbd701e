#include "core/private_table.h"

#include <string>
#include <vector>

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

Result<const ProvenanceGraph*> PrivateTable::ProvenanceFor(
    const std::string& attribute, const ExecutionOptions& exec) const {
  if (auto it = graph_cache_.find(attribute); it != graph_cache_.end()) {
    return &it->second;
  }
  PCLEAN_ASSIGN_OR_RETURN(ProvenanceGraph graph,
                          provenance_.GraphFor(relation_, attribute, exec));
  return &graph_cache_.emplace(attribute, std::move(graph)).first->second;
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
  PCLEAN_ASSIGN_OR_RETURN(*graph, ProvenanceFor(attr, options.exec));
  EstimationInputs in;
  PCLEAN_ASSIGN_OR_RETURN(in.mechanism, MechanismFor(meta_it->second));
  PCLEAN_ASSIGN_OR_RETURN(
      in.p,
      in.mechanism->ReplacementProbability(meta_it->second.domain.size()));
  in.n = static_cast<double>((*graph)->num_dirty_values());
  in.confidence = options.confidence;
  return in;
}

Result<EstimationInputs> PrivateTable::InputsForPredicate(
    const Predicate& predicate, const std::string& numeric_attribute,
    const QueryOptions& options) const {
  const ProvenanceGraph* graph = nullptr;
  PCLEAN_ASSIGN_OR_RETURN(
      EstimationInputs in,
      BaseInputsFor(predicate.attribute(), options, &graph));
  // l, the dirty-side selectivity of M_pred: the weighted provenance cut
  // (PC-W, §7.2) or the unweighted vertex count (PC-U, §6.3).
  const std::vector<Value> m_pred =
      predicate.MatchingValues(graph->clean_domain());
  in.l = options.weighted_cut
             ? graph->WeightedSelectivity(m_pred)
             : static_cast<double>(graph->UnweightedSelectivity(m_pred));
  if (!numeric_attribute.empty()) {
    if (auto it = metadata_.numeric.find(numeric_attribute);
        it != metadata_.numeric.end()) {
      in.b = it->second.b;
    }
  }
  return in;
}

namespace {

/// Plans `query` exactly as the SQL layer plans its parsed form and
/// returns the plan's single result row (an AggregateQuery never groups).
Result<QueryResult> RunAggregatePlan(const PrivateTable& table,
                                     const AggregateQuery& query,
                                     QueryMode mode,
                                     const QueryOptions& options) {
  ParsedSql parsed;
  parsed.table_name = table.metadata().relation_name;
  parsed.query = query;
  PCLEAN_ASSIGN_OR_RETURN(
      SqlResultSet rs,
      ExecutePlan(table, PlanQuery(table, parsed, mode), options));
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

}  // namespace privateclean
