#ifndef PRIVATECLEAN_CORE_ADMISSION_H_
#define PRIVATECLEAN_CORE_ADMISSION_H_

#include <string>

#include "core/private_table.h"
#include "core/sql_execution.h"
#include "privacy/ledger.h"
#include "query/sql.h"

namespace privateclean {

/// The ε price of one parsed query against `table`'s mechanism
/// metadata: the sum of per-attribute ε (privacy/accountant.h, mechanism
/// aware) over QueryPlan::attributes — the distinct attributes the query
/// reads (WHERE tree, the aggregate's argument, GROUP BY, DISTINCT), as
/// PlanQuery records them for every plan, rejected ones included. A
/// query touching no attribute (a bare COUNT(1)) costs 0: it reveals
/// only the public release size. An attribute the relation does not
/// have is a typed NotFound naming it — priced queries never reach
/// execution to find out there.
Result<double> QueryEpsilonCost(const PrivateTable& table,
                                const ParsedSql& parsed);

/// What admission decided for a query it let through.
struct AdmissionTicket {
  /// The ε charged (0 = free query, nothing was written to the ledger).
  double cost = 0.0;
  /// The tenant's budget BEFORE this charge (all-zero for a tenant the
  /// ledger has never seen, which can only admit free queries).
  TenantBudget before;
};

/// Admission control: plans `sql` once (PlanQuery), prices the plan's
/// attributes and charges the tenant's budget in `ledger` — durably,
/// BEFORE any execution side effect. A form the estimators then decline
/// is still charged: the price depends only on what the query reads.
/// Typed failures:
///   ResourceExhausted — the charge overdrafts; names the tenant, spent,
///                       and remaining ε. Nothing is charged.
///   InvalidArgument   — the SQL does not parse.
///   NotFound          — the query references an attribute the relation
///                       does not have, or the FROM name is not the
///                       relation the table serves (the plan's own
///                       rejection). Nothing is charged.
Result<AdmissionTicket> AdmitSqlQuery(BudgetLedger& ledger,
                                      const std::string& tenant,
                                      const PrivateTable& table,
                                      const std::string& sql);

/// Renders the one-line charge acknowledgement `pclean query` prints
/// after admission ("charged epsilon E to tenant 't' (remaining R)").
/// The server prepends the same line to a served RESULT, so a charged
/// answer is byte-identical locally and over the wire. `after` is the
/// tenant's budget after the charge (BudgetLedger::BudgetOrZero).
std::string RenderAdmissionLine(const std::string& tenant,
                                const AdmissionTicket& ticket,
                                const TenantBudget& after);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_ADMISSION_H_
