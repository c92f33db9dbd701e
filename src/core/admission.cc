#include "core/admission.h"

#include <vector>

#include "common/string_util.h"
#include "privacy/accountant.h"

namespace privateclean {

namespace {

Result<double> PriceAttributes(const PrivateTable& table,
                               const std::vector<std::string>& attributes) {
  if (attributes.empty()) return 0.0;
  PCLEAN_ASSIGN_OR_RETURN(PrivacyReport report,
                          AccountPrivacy(table.metadata()));
  double cost = 0.0;
  for (const std::string& attribute : attributes) {
    auto it = report.per_attribute_epsilon.find(attribute);
    if (it == report.per_attribute_epsilon.end()) {
      return Status::NotFound("attribute '" + attribute +
                              "' is not part of the private relation; "
                              "nothing was charged");
    }
    cost += it->second;
  }
  return cost;
}

}  // namespace

Result<double> QueryEpsilonCost(const PrivateTable& table,
                                const ParsedSql& parsed) {
  return PriceAttributes(
      table, PlanQuery(table, parsed, QueryMode::kCorrected).attributes);
}

Result<AdmissionTicket> AdmitSqlQuery(BudgetLedger& ledger,
                                      const std::string& tenant,
                                      const PrivateTable& table,
                                      const std::string& sql) {
  PCLEAN_ASSIGN_OR_RETURN(ParsedSql parsed, ParseSql(sql));
  const QueryPlan plan = PlanQuery(table, parsed, QueryMode::kCorrected);
  // An unknown FROM name is the plan's one NotFound: reject it before
  // pricing, so admission agrees with execution about which queries
  // exist at all.
  if (plan.status.IsNotFound()) return plan.status;
  PCLEAN_ASSIGN_OR_RETURN(double cost, PriceAttributes(table, plan.attributes));

  AdmissionTicket ticket;
  ticket.cost = cost;
  auto before = ledger.Budget(tenant);
  if (before.ok()) {
    ticket.before = *before;
  } else if (!before.status().IsNotFound()) {
    return before.status();
  }
  if (cost > 0.0) {
    // The durable charge IS the admission decision: Charge's
    // check-and-spend is atomic, so concurrent queries cannot jointly
    // overdraft, and its ResourceExhausted already names the tenant,
    // spent, and remaining ε.
    PCLEAN_RETURN_NOT_OK(ledger.Charge(tenant, cost));
  }
  return ticket;
}

std::string RenderAdmissionLine(const std::string& tenant,
                                const AdmissionTicket& ticket,
                                const TenantBudget& after) {
  return "charged epsilon " + FormatDouble(ticket.cost) + " to tenant '" +
         tenant + "' (remaining " + FormatDouble(after.remaining()) + ")\n";
}

}  // namespace privateclean
