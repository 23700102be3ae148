// Self-tests of the benchmark's correctness checks: each check passes on the
// program's real output and rejects a deliberately wrong one — a result with
// one row dropped, a plan with an inflated cost, a stale cached plan, broken
// request accounting, a catalog version that goes back.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.h"
#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "relational/query_gen.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using volcano::PlanNode;
using volcano::PlanPtr;
namespace rel = volcano::rel;
namespace exec = volcano::exec;

struct Compiled {
  rel::ParsedQuery query;
  PlanPtr plan;
};

Compiled Compile(rel::TpchWorkload& w, const std::string& name) {
  for (const rel::TpchQuery& q : w.queries) {
    if (q.name != name) continue;
    auto parsed = rel::ParseSql(q.sql, *w.model, w.catalog->symbols());
    EXPECT_TRUE(parsed.ok());
    volcano::Optimizer opt(*w.model);
    auto plan = opt.Optimize(*parsed->expr, parsed->required);
    EXPECT_TRUE(plan.ok());
    return {*parsed, *plan};
  }
  ADD_FAILURE() << "no query " << name;
  return {};
}

TEST(Checks, NaiveComparisonRejectsADroppedRow) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  exec::Database db = exec::GenerateDatabase(*w.catalog, 7);
  Compiled c = Compile(w, "q03");
  std::vector<exec::Row> rows = exec::ExecutePlan(*c.plan, *w.model, db);
  ASSERT_GT(rows.size(), 1u);
  EXPECT_EQ(CheckAgainstNaive(*c.plan, rows, *c.query.expr, c.query.required,
                              *w.model, db),
            "");
  rows.pop_back();
  EXPECT_NE(CheckAgainstNaive(*c.plan, rows, *c.query.expr, c.query.required,
                              *w.model, db),
            "");
}

TEST(Checks, NaiveComparisonRejectsAChangedValue) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  exec::Database db = exec::GenerateDatabase(*w.catalog, 7);
  Compiled c = Compile(w, "q07");  // SELECT DISTINCT: the oracle is deduped
  std::vector<exec::Row> rows = exec::ExecutePlan(*c.plan, *w.model, db);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(CheckAgainstNaive(*c.plan, rows, *c.query.expr, c.query.required,
                              *w.model, db),
            "");
  rows.front().front() += 1000;
  EXPECT_NE(CheckAgainstNaive(*c.plan, rows, *c.query.expr, c.query.required,
                              *w.model, db),
            "");
}

TEST(Checks, RecostRejectsAnInflatedCost) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  Compiled c = Compile(w, "q12");
  EXPECT_EQ(CheckPlanValid(*c.plan, c.query.required, *w.model), "");
  EXPECT_EQ(CheckRecostMatches(*c.plan, *w.model), "");
  volcano::Cost inflated = c.plan->cost();
  inflated.at(0) *= 1.5;
  PlanPtr bad = PlanNode::Make(c.plan->op(), c.plan->arg(), c.plan->inputs(),
                               c.plan->props(), c.plan->logical(), inflated);
  EXPECT_NE(CheckRecostMatches(*bad, *w.model), "");
}

TEST(Checks, PlanValidityRejectsAMissingOrder) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  Compiled ordered = Compile(w, "q15");  // ORDER BY supplier.a0
  Compiled other = Compile(w, "q02");
  EXPECT_EQ(CheckPlanValid(*ordered.plan, ordered.query.required, *w.model),
            "");
  EXPECT_NE(CheckPlanValid(*other.plan, ordered.query.required, *w.model), "");
}

TEST(Checks, BaselineComparisonRejectsADearerPlan) {
  EXPECT_EQ(CheckNotWorseThanBaseline(10.0, 10.0), "");
  EXPECT_EQ(CheckNotWorseThanBaseline(9.0, 10.0), "");
  EXPECT_NE(CheckNotWorseThanBaseline(10.01, 10.0), "");
}

TEST(Checks, AccountingRejectsALostRequest) {
  volcano::serve::ServeStats stats;
  stats.requests = 10;
  stats.ok = 8;
  stats.errors = 1;
  stats.shed = 1;
  EXPECT_EQ(CheckServeAccounting(stats, 10), "");
  EXPECT_NE(CheckServeAccounting(stats, 11), "");
  stats.ok = 7;
  EXPECT_NE(CheckServeAccounting(stats, 10), "");
}

TEST(Checks, VersionsRejectGoingBack) {
  EXPECT_EQ(CheckVersionsMonotonic({3, 4, 4, 9}), "");
  EXPECT_NE(CheckVersionsMonotonic({3, 5, 4}), "");
}

TEST(Checks, CachedPlanRejectsAStaleCatalog) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  std::string sql;
  for (const rel::TpchQuery& q : w.queries) {
    if (q.name == "q03") sql = q.sql;  // selects on lineitem.a4
  }
  volcano::serve::ServerOptions opts;
  volcano::serve::Server server(w.catalog.get(), opts);
  server.HandleLine(sql);
  const std::string hit = server.HandleLine(sql);
  ASSERT_TRUE(JsonTrue(hit, "cached")) << hit;

  rel::TpchWorkload same = rel::MakeTpchWorkload();
  volcano::serve::Session fresh(
      *same.catalog, volcano::SearchConfig::FromOptions({}).value());
  EXPECT_EQ(CheckCachedMatchesCold(hit, fresh.OptimizeSql(sql, {}, true)), "");

  // The same hit checked against a catalog whose statistics moved on: the
  // cached plan is stale and must be rejected.
  rel::TpchWorkload moved = rel::MakeTpchWorkload();
  ASSERT_TRUE(moved.catalog
                  ->SetDistinct(moved.catalog->symbols().Lookup("lineitem.a4"),
                                61)
                  .ok());
  volcano::serve::Session later(
      *moved.catalog, volcano::SearchConfig::FromOptions({}).value());
  EXPECT_NE(CheckCachedMatchesCold(hit, later.OptimizeSql(sql, {}, true)), "");
}

TEST(Checks, JsonFieldReaders) {
  const std::string resp =
      R"({"id": 7, "ok": true, "cached": false, "catalog_version": 42})";
  EXPECT_EQ(JsonUint(resp, "catalog_version", 0), 42u);
  EXPECT_EQ(JsonUint(resp, "missing", 5), 5u);
  EXPECT_TRUE(JsonTrue(resp, "ok"));
  EXPECT_FALSE(JsonTrue(resp, "cached"));
}

}  // namespace
}  // namespace perfbench
