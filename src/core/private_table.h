#ifndef PRIVATECLEAN_CORE_PRIVATE_TABLE_H_
#define PRIVATECLEAN_CORE_PRIVATE_TABLE_H_

#include <string>
#include <unordered_map>

#include "cleaning/pipeline.h"
#include "core/estimators.h"
#include "core/query_result.h"
#include "privacy/accountant.h"
#include "privacy/grr.h"
#include "privacy/tuning.h"
#include "provenance/provenance_manager.h"
#include "query/aggregate.h"

namespace privateclean {

/// Per-query knobs for PrivateTable estimators.
struct QueryOptions {
  double confidence = 0.95;
  /// true: weighted provenance cut (PC-W, §7.2);
  /// false: unweighted vertex count (PC-U, §6.3) — on forked graphs this
  /// over-counts; exposed for the Figure 7 ablation.
  bool weighted_cut = true;
  /// Threading (common/thread_pool.h) for every row pass a query runs:
  /// the predicate scans, the group-count pass (GroupByCount),
  /// ExecuteAggregate's per-row loops, provenance graph (re)builds, and
  /// the bootstrap replicate loop of the §10 extension aggregates.
  /// Results are identical at every thread count.
  ExecutionOptions exec;

  /// Extension aggregates (median/percentile/var/std): when > 0, wrap
  /// the point estimate in a bootstrap percentile interval at
  /// `confidence` with this many replicates (paper §10; at least 10, or
  /// InvalidArgument); 0 (the default) returns the point estimate with a
  /// degenerate interval. Other routes ignore it.
  size_t bootstrap_replicates = 0;

  /// Seed of the bootstrap resampling stream (only consulted when
  /// `bootstrap_replicates > 0`). Fixed seed + fixed replicate count =
  /// bit-identical interval at any thread count.
  uint64_t bootstrap_seed = 0x9E3779B97F4A7C15ULL;
};

/// The PrivateClean private relation: an ε-locally-differentially-private
/// relation V that the analyst can clean (Extract/Transform/Merge), with
/// the data and provenance the bias-corrected estimators read.
///
/// Lifecycle (paper Figure 1):
///   1. the *provider* calls Create() on the original dirty relation R —
///      GRR randomizes it and the original is no longer needed;
///   2. the *analyst* applies cleaning operations with Clean();
///   3. the analyst queries it through the one query plan of
///      core/sql_execution.h (PlanQuery + ExecutePlan): SQL text with
///      ExecuteSqlQuery / ExecuteSqlQueryDirect, or an AggregateQuery
///      with Execute / ExecuteDirect, which only build that plan.
///
/// The table keeps the GRR metadata (p_i, b_i, domains, S) and a
/// provenance manager that snapshots V at creation, so after any
/// composition of cleaners it can rebuild the dirty→clean bipartite graph
/// and re-anchor query selectivity in the dirty domain (paper §6–§7):
/// ProvenanceFor and InputsForPredicate are what the query routes read.
class PrivateTable {
 public:
  /// Privatizes `original` with explicit GRR parameters.
  static Result<PrivateTable> Create(const Table& original,
                                     const GrrParams& params,
                                     const GrrOptions& options, Rng& rng);

  /// Privatizes `original` with parameters chosen by the Appendix E
  /// tuning algorithm for a desired worst-case count error (selectivity
  /// units) at the given confidence.
  static Result<PrivateTable> CreateWithTuning(const Table& original,
                                               double max_count_error,
                                               double confidence, Rng& rng);

  /// Privatizes `original` under a total ε budget, split uniformly
  /// across all attributes (Theorem 1 composition; §4.2.3 "Setting ε").
  static Result<PrivateTable> CreateWithEpsilonBudget(const Table& original,
                                                      double total_epsilon,
                                                      Rng& rng);

  /// Wraps an already-privatized relation (e.g. loaded from a release
  /// directory, see core/release.h). `relation` must be the *uncleaned*
  /// private relation: the provenance snapshot anchors to it. The
  /// metadata must cover every attribute of the relation's schema.
  static Result<PrivateTable> FromPrivateRelation(
      Table relation, PrivateRelationMetadata metadata);

  /// The current private relation (V before cleaning, V_clean after).
  const Table& relation() const { return relation_; }

  /// S, the relation size.
  size_t size() const { return relation_.num_rows(); }

  /// GRR metadata (public mechanism parameters).
  const PrivateRelationMetadata& metadata() const { return metadata_; }

  /// Theorem 1 ε accounting for this relation.
  Result<PrivacyReport> PrivacyAccounting() const {
    return AccountPrivacy(metadata_);
  }

  /// Applies one cleaner to the private relation, keeping provenance
  /// consistent (Extract cleaners are registered with their anchor).
  Status Clean(const Cleaner& cleaner);

  /// Applies a whole pipeline, stopping at the first failure.
  Status Clean(const CleaningPipeline& pipeline);

  /// --- Queries ----------------------------------------------------------

  /// The programmatic front door: plans `query` as the SQL layer plans
  /// its parsed form (core/sql_execution.h, PlanQuery in
  /// QueryMode::kCorrected) and runs that plan, so every route answers
  /// here exactly as it does for SQL — COUNT/SUM/AVG under a
  /// single-attribute predicate (§5–§7), COUNT under an AND of two
  /// single-attribute groups (§10 conjunctive), and MEDIAN/VAR/STD/
  /// PERCENTILE (§10, a bootstrap interval when
  /// `options.bootstrap_replicates > 0`). MIN/MAX are not privately
  /// answerable. GROUP BY has no AggregateQuery form: use SQL.
  Result<QueryResult> Execute(
      const AggregateQuery& query,
      const QueryOptions& options = QueryOptions()) const;

  /// The Direct estimator (§8.1): the same plan in QueryMode::kDirect —
  /// the nominal aggregate on the cleaned private relation, no
  /// re-weighting, under ExecuteAggregate's NULL semantics. Only
  /// `options.exec` is consulted (Direct has no confidence interval or
  /// provenance cut to configure).
  Result<QueryResult> ExecuteDirect(
      const AggregateQuery& query,
      const QueryOptions& options = QueryOptions()) const;

  /// --- Introspection -----------------------------------------------------

  /// The provenance graph of a discrete attribute. Graphs cost O(S) to
  /// build, so they are built on first use and cached; the pointer stays
  /// valid until the next Clean(), which invalidates the cache.
  /// PrivateTable is not thread-safe: concurrent queries on one instance
  /// would race on this cache (intra-query parallelism via `exec` is fine
  /// — the scan shards never touch it), so a table shared across threads
  /// must have its graphs built first.
  Result<const ProvenanceGraph*> ProvenanceFor(
      const std::string& attribute, const ExecutionOptions& exec = {}) const;

  /// The deterministic estimator inputs (p, l, N, and b of
  /// `numeric_attribute` when non-empty) the corrected routes use for
  /// this single-attribute predicate right now. Typed rejection for a
  /// predicate on a numeric attribute (no transition matrix) and for one
  /// not backed by a randomized discrete attribute.
  Result<EstimationInputs> InputsForPredicate(
      const Predicate& predicate, const std::string& numeric_attribute,
      const QueryOptions& options) const;

  PrivateTable(PrivateTable&&) = default;
  PrivateTable& operator=(PrivateTable&&) = default;

 private:
  PrivateTable() = default;

  /// The selectivity-independent estimator inputs of the discrete
  /// attribute `attr` — mechanism, p, N, confidence — with `*graph` set
  /// to its cached provenance graph (ProvenanceFor). Callers fill in l for
  /// their M_pred.
  /// Typed rejection for a numeric attribute (no transition matrix) and
  /// for one not backed by a randomized discrete attribute.
  Result<EstimationInputs> BaseInputsFor(const std::string& attr,
                                         const QueryOptions& options,
                                         const ProvenanceGraph** graph) const;

  Table relation_;
  PrivateRelationMetadata metadata_;
  ProvenanceManager provenance_;
  mutable std::unordered_map<std::string, ProvenanceGraph> graph_cache_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_PRIVATE_TABLE_H_
