// Correctness checks the benchmark runs on every workload.
//
// Each check compares the program's output with a computation made apart
// from the code under test — the naive nested-loop evaluator, a bottom-up
// re-costing of the plan, the EXODUS baseline, a cold Session — or with a
// property the method must have. None compares against a stored copy of
// earlier output. Every check returns an empty string when it passes and a
// one-line reason when it fails; checks_test.cc feeds each one a
// deliberately wrong input.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "exec/table.h"
#include "relational/rel_model.h"
#include "search/plan.h"
#include "serve/serve_stats.h"
#include "serve/session.h"

namespace perfbench {

/// The rows a plan produced (in the plan's column order) equal, as a
/// multiset, the naive evaluator's rows for the logical query (in the
/// logical column order). `dedupe_oracle` applies the DISTINCT a required
/// uniqueness property asks for to the oracle side.
std::string CheckRowsMatch(const std::vector<volcano::exec::Row>& plan_rows,
                           const volcano::exec::Schema& plan_schema,
                           std::vector<volcano::exec::Row> oracle_rows,
                           const volcano::exec::Schema& oracle_schema,
                           bool dedupe_oracle);

/// Runs the naive evaluator on `query` and compares it with `plan_rows`,
/// which ExecutePlan produced for `plan` over `db`.
std::string CheckAgainstNaive(const volcano::PlanNode& plan,
                              const std::vector<volcano::exec::Row>& plan_rows,
                              const volcano::Expr& query,
                              const volcano::PhysPropsPtr& required,
                              const volcano::rel::RelModel& model,
                              const volcano::exec::Database& db);

/// The plan is structurally valid (rel::ValidatePlan) and delivers the
/// required properties.
std::string CheckPlanValid(const volcano::PlanNode& plan,
                           const volcano::PhysPropsPtr& required,
                           const volcano::rel::RelModel& model);

/// Re-costing the plan bottom-up (rel::RecostPlan) gives the cost the
/// optimizer reported for it.
std::string CheckRecostMatches(const volcano::PlanNode& plan,
                               const volcano::rel::RelModel& model);

/// The paper's plan-quality claim: the optimizer's plan, re-costed, is never
/// dearer than the EXODUS baseline's plan re-costed with the same model.
std::string CheckNotWorseThanBaseline(double volcano_recost,
                                      double exodus_recost);

/// Every submitted request is accounted for exactly once:
/// ok + errors + shed == requests == submitted.
std::string CheckServeAccounting(const volcano::serve::ServeStats& stats,
                                 uint64_t submitted);

/// The catalog versions one client saw, in the order it saw them, never
/// decrease.
std::string CheckVersionsMonotonic(const std::vector<uint64_t>& versions);

/// A cached plan response is byte-identical, in its algebra, required
/// properties, plan and cost fields, to a cold optimization of the same SQL
/// over the same catalog state.
std::string CheckCachedMatchesCold(const std::string& response,
                                   const volcano::serve::Session::Result& cold);

/// The unsigned integer value of `"key": N` in a one-line JSON response, or
/// `fallback` when the key is absent.
uint64_t JsonUint(const std::string& json, const char* key, uint64_t fallback);

/// True when the one-line JSON response contains `"key": true`.
bool JsonTrue(const std::string& json, const char* key);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
