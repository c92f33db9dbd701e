#ifndef PRIVATECLEAN_CORE_PRIVATECLEAN_H_
#define PRIVATECLEAN_CORE_PRIVATECLEAN_H_

/// Umbrella header: everything a PrivateClean user needs.
///
///   #include "core/privateclean.h"
///
///   using namespace privateclean;
///   Rng rng(42);
///   auto private_table = PrivateTable::Create(r, GrrParams::Uniform(0.1, 10.0),
///                                             GrrOptions{}, rng);
///   private_table->Clean(FindReplace::Single("major",
///                                            "Mechanical Engineering",
///                                            "Mech. Eng."));
///   auto result = private_table->Execute(AggregateQuery::Avg(
///       "score", Predicate::Equals("major", "Mech. Eng.")));

#include "cleaning/constraints.h"
#include "cleaning/extract.h"
#include "cleaning/fd_repair.h"
#include "cleaning/md_repair.h"
#include "cleaning/merge.h"
#include "cleaning/pipeline.h"
#include "cleaning/transform.h"
#include "common/random.h"
#include "common/result.h"
#include "common/statistics.h"
#include "common/status.h"
#include "core/admission.h"
#include "core/conjunctive.h"
#include "core/estimators.h"
#include "core/private_table.h"
#include "core/query_result.h"
#include "core/release.h"
#include "core/sql_execution.h"
#include "privacy/accountant.h"
#include "privacy/allocation.h"
#include "privacy/grr.h"
#include "privacy/laplace_mechanism.h"
#include "privacy/ledger.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "privacy/randomized_response.h"
#include "privacy/size_bound.h"
#include "privacy/tuning.h"
#include "query/aggregate.h"
#include "query/predicate.h"
#include "table/csv.h"
#include "table/domain.h"
#include "table/table.h"
#include "table/table_builder.h"

#endif  // PRIVATECLEAN_CORE_PRIVATECLEAN_H_
