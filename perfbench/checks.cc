#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "exec/iterator.h"
#include "exec/plan_exec.h"
#include "relational/rel_plan_cost.h"
#include "relational/rel_props.h"
#include "support/json_writer.h"

namespace perfbench {

using volcano::exec::Row;
using volcano::exec::Schema;

std::string CheckRowsMatch(const std::vector<Row>& plan_rows,
                           const Schema& plan_schema,
                           std::vector<Row> oracle_rows,
                           const Schema& oracle_schema, bool dedupe_oracle) {
  if (dedupe_oracle) {
    std::sort(oracle_rows.begin(), oracle_rows.end());
    oracle_rows.erase(std::unique(oracle_rows.begin(), oracle_rows.end()),
                      oracle_rows.end());
  }
  if (plan_schema.size() != oracle_schema.size()) {
    return "plan has " + std::to_string(plan_schema.size()) +
           " columns, the naive evaluator " +
           std::to_string(oracle_schema.size());
  }
  for (volcano::Symbol attr : oracle_schema.attrs()) {
    if (plan_schema.IndexOf(attr) < 0) {
      return "plan columns differ from the naive evaluator's";
    }
  }
  std::vector<Row> got =
      volcano::exec::ReorderToSchema(plan_rows, plan_schema, oracle_schema);
  if (!volcano::exec::SameMultiset(std::move(got), oracle_rows)) {
    return "plan returned " + std::to_string(plan_rows.size()) +
           " rows, the naive evaluator " + std::to_string(oracle_rows.size()) +
           " (or the same count with different rows)";
  }
  return {};
}

std::string CheckAgainstNaive(const volcano::PlanNode& plan,
                              const std::vector<Row>& plan_rows,
                              const volcano::Expr& query,
                              const volcano::PhysPropsPtr& required,
                              const volcano::rel::RelModel& model,
                              const volcano::exec::Database& db) {
  const auto* rp =
      dynamic_cast<const volcano::rel::RelPhysProps*>(required.get());
  return CheckRowsMatch(plan_rows, volcano::exec::PlanSchema(plan, model, db),
                        volcano::exec::EvalLogical(query, model, db),
                        volcano::exec::LogicalSchema(query, model, db),
                        rp != nullptr && rp->unique());
}

std::string CheckPlanValid(const volcano::PlanNode& plan,
                           const volcano::PhysPropsPtr& required,
                           const volcano::rel::RelModel& model) {
  volcano::Status s = volcano::rel::ValidatePlan(plan, model);
  if (!s.ok()) return "invalid plan: " + s.ToString();
  if (required != nullptr && !plan.props()->Covers(*required)) {
    return "plan does not deliver the required properties " +
           required->ToString();
  }
  return {};
}

std::string CheckRecostMatches(const volcano::PlanNode& plan,
                               const volcano::rel::RelModel& model) {
  const volcano::CostModel& cm = model.cost_model();
  const double reported = cm.Total(plan.cost());
  const double recost = cm.Total(volcano::rel::RecostPlan(plan, model));
  if (!std::isfinite(reported) || !std::isfinite(recost) ||
      std::fabs(reported - recost) > 1e-9 * std::max(1.0, std::fabs(recost))) {
    return "reported cost " + std::to_string(reported) +
           " differs from the re-costed " + std::to_string(recost);
  }
  return {};
}

std::string CheckNotWorseThanBaseline(double volcano_recost,
                                      double exodus_recost) {
  if (!(volcano_recost <= exodus_recost * (1.0 + 1e-9))) {
    return "plan cost " + std::to_string(volcano_recost) +
           " is above the EXODUS baseline's " + std::to_string(exodus_recost);
  }
  return {};
}

std::string CheckServeAccounting(const volcano::serve::ServeStats& stats,
                                 uint64_t submitted) {
  if (stats.requests != submitted ||
      stats.ok + stats.errors + stats.shed != stats.requests) {
    return "server counted " + std::to_string(stats.requests) +
           " requests (ok " + std::to_string(stats.ok) + ", errors " +
           std::to_string(stats.errors) + ", shed " +
           std::to_string(stats.shed) + ") for " + std::to_string(submitted) +
           " submitted";
  }
  return {};
}

std::string CheckVersionsMonotonic(const std::vector<uint64_t>& versions) {
  for (size_t i = 1; i < versions.size(); ++i) {
    if (versions[i] < versions[i - 1]) {
      return "catalog version went back from " +
             std::to_string(versions[i - 1]) + " to " +
             std::to_string(versions[i]);
    }
  }
  return {};
}

std::string CheckCachedMatchesCold(
    const std::string& response, const volcano::serve::Session::Result& cold) {
  if (!cold.status.ok()) {
    return "cold optimization failed: " + cold.status.ToString();
  }
  // The four fields as the server renders them, in its field order.
  volcano::JsonWriter w;
  w.BeginObject();
  w.Key("algebra").Value(cold.algebra);
  w.Key("required").Value(cold.required);
  w.Key("plan").Value(cold.plan);
  w.Key("cost").Value(cold.cost);
  w.EndObject();
  const std::string& obj = w.str();
  const std::string fields = obj.substr(1, obj.size() - 2);
  if (response.find(fields) == std::string::npos) {
    return "cached response differs from cold optimization: " + response;
  }
  return {};
}

uint64_t JsonUint(const std::string& json, const char* key,
                  uint64_t fallback) {
  const std::string needle = std::string("\"") + key + "\": ";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return fallback;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

bool JsonTrue(const std::string& json, const char* key) {
  return json.find(std::string("\"") + key + "\": true") != std::string::npos;
}

}  // namespace perfbench
