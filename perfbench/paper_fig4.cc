// Workload paper-fig4: the paper's section 4.2 experiment, optimized without
// executing. Random select-join queries over 2 to 8 relations of 1,200 to
// 7,200 tuples, several seeds per level, half of them with an ORDER BY. The
// engine runs in its default configuration (task engine, serial), so the
// search layer does almost all the work.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "exodus/exodus_optimizer.h"
#include "layers.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace perfbench {
namespace {

namespace rel = volcano::rel;
namespace exec = volcano::exec;
using volcano::Optimizer;
using volcano::PlanPtr;
using volcano::SearchConfig;
using volcano::SearchOptions;
using volcano::StatusOr;

constexpr int kMinRelations = 2;
constexpr int kMaxRelations = 8;
/// Queries per relation count; even-numbered ones carry an ORDER BY. The
/// optimization time of one random 8-relation query varies about 5x with
/// its join graph, so a level needs many queries for the lap time and the
/// latency percentiles to hold steady across workload seeds (one lap takes
/// about 1.4 s on a 4-core x86 host).
constexpr int kSeedsPerLevel = 192;
/// The EXODUS comparison and the naive-evaluator execution run on the first
/// queries of each level only: EXODUS takes up to an order of magnitude
/// longer than the optimizer under test.
constexpr int kCheckedPerLevel = 4;
/// Queries up to this many relations are also executed and compared with
/// the naive evaluator (its nested loops grow as the product of the inputs).
constexpr int kMaxExecutedRelations = 4;
/// One query that does not depend on the workload seed and whose plan the
/// optimizer, today, makes dearer than the EXODUS baseline's (by 0.03 %).
/// Every lap optimizes it; its EXODUS comparison is the one that counts as
/// failed, so the failed share is the same in every run. On the random
/// queries a dearer plan is reported but not counted: which of them it hits
/// depends on the seed.
constexpr int kFixedRelations = 5;
constexpr uint64_t kFixedQuerySeed = 13936726923347647513ULL;

struct Query {
  int relations = 0;
  int index_in_level = 0;  ///< -1 for the fixed query
  rel::Workload w;
};

std::vector<Query> BuildQueries(uint64_t seed) {
  std::vector<Query> out;
  for (int n = kMinRelations; n <= kMaxRelations; ++n) {
    for (int k = 0; k < kSeedsPerLevel; ++k) {
      rel::WorkloadOptions o;
      o.num_relations = n;
      o.order_by_prob = k % 2 == 0 ? 1.0 : 0.0;
      Query q;
      q.relations = n;
      q.index_in_level = k;
      q.w = rel::GenerateWorkload(
          o, Mix(seed * 1000003u + uint64_t(n) * 101u + uint64_t(k)));
      out.push_back(std::move(q));
    }
  }
  rel::WorkloadOptions o;
  o.num_relations = kFixedRelations;
  o.order_by_prob = 0.0;
  out.push_back(
      {kFixedRelations, -1, rel::GenerateWorkload(o, kFixedQuerySeed)});
  return out;
}

struct LapResults {
  LoopTiming timing;
  std::vector<double> latency_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The last lap's plan per query, and the first lap's reported cost.
  std::vector<PlanPtr> plans;
  std::vector<double> first_cost;
};

LapResults RunLaps(const std::vector<Query>& queries, double seconds,
                   Tracer* tracer, LayerMetrics* layers, Report* report) {
  SearchOptions so;
  so.collect_phase_timing = tracer != nullptr;
  const SearchConfig config = SearchConfig::FromOptions(so).value();
  LapResults out;
  out.plans.resize(queries.size());
  out.first_cost.assign(queries.size(), -1.0);
  uint64_t op = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point round_start = Clock::now();
    for (size_t i = 0; i < queries.size(); ++i, ++op) {
      const rel::Workload& w = queries[i].w;
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      Optimizer opt(*w.model, config);
      const volcano::PhaseTimers before = opt.metrics().phases;
      StatusOr<PlanPtr> plan = [&] {
        ScopedSpan sp(tracer, "search.optimize", op);
        return opt.Optimize(*w.query, w.required);
      }();
      const double seconds_taken = SecondsSince(t0);
      out.latency_s.push_back(seconds_taken);
      if (!plan.ok()) {
        ++out.failed;
        continue;
      }
      // The search is deterministic: every lap must report the same cost.
      const double cost = w.model->cost_model().Total((*plan)->cost());
      if (out.first_cost[i] < 0) {
        out.first_cost[i] = cost;
      } else if (cost != out.first_cost[i]) {
        report->CheckFailed("paper-fig4 query " + std::to_string(i) +
                            ": cost changed between laps");
        ++out.failed;
      }
      out.plans[i] = *plan;
      if (layers != nullptr) layers->search.Add(opt, before, seconds_taken);
    }
    out.timing.round_s.push_back(SecondsSince(round_start));
  } while (SecondsSince(start) < seconds);
  return out;
}

/// Outside the timed laps, on the last lap's plans: every plan is valid and
/// re-costing gives its reported cost. On the sampled queries and the fixed
/// one, the plan is compared with the EXODUS baseline's (untimed; runs that
/// hit its node cap are skipped) and, for small queries, the executed rows
/// with the naive evaluator's. Returns the number of queries that failed a
/// check; each counts as one failed operation per lap.
uint64_t CheckPlans(const std::vector<Query>& queries, const LapResults& laps,
                    uint64_t seed, Report* report) {
  uint64_t failed = 0;
  int exodus_compared = 0, exodus_dearer_random = 0, executed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const rel::Workload& w = q.w;
    if (laps.plans[i] == nullptr) continue;  // counted as failed in the laps
    const volcano::PlanNode& plan = *laps.plans[i];
    const std::string name = "paper-fig4 query " + std::to_string(i) + " (" +
                             std::to_string(q.relations) + " relations)";
    std::string why = CheckPlanValid(plan, w.required, *w.model);
    if (why.empty()) why = CheckRecostMatches(plan, *w.model);
    const bool fixed = q.index_in_level < 0;
    const bool sampled = fixed || q.index_in_level < kCheckedPerLevel;
    if (why.empty() && sampled) {
      volcano::exodus::ExodusOptimizer baseline(*w.model);
      StatusOr<PlanPtr> eplan = baseline.Optimize(*w.query, w.required);
      if (eplan.ok()) {
        const volcano::CostModel& cm = w.model->cost_model();
        const std::string dearer = CheckNotWorseThanBaseline(
            cm.Total(rel::RecostPlan(plan, *w.model)),
            cm.Total(rel::RecostPlan(**eplan, *w.model)));
        if (!dearer.empty() && fixed) {
          // A fault of the optimizer, not of this run: failed, while
          // "correct" keeps speaking of the operations that did not fail.
          std::fprintf(stderr, "failed (known fault): %s: %s\n",
                       name.c_str(), dearer.c_str());
          ++failed;
        } else if (!dearer.empty()) {
          std::fprintf(stderr, "note: %s: %s\n", name.c_str(),
                       dearer.c_str());
          ++exodus_dearer_random;
        }
        ++exodus_compared;
      }
    }
    if (why.empty() && sampled && q.relations <= kMaxExecutedRelations) {
      exec::Database db = exec::GenerateDatabase(*w.catalog, Mix(seed + i));
      why = CheckAgainstNaive(plan, exec::ExecutePlan(plan, *w.model, db),
                              *w.query, w.required, *w.model, db);
      ++executed;
    }
    if (!why.empty()) {
      report->CheckFailed(name + ": " + why);
      ++failed;
    }
  }
  report->Context("exodus_compared", std::to_string(exodus_compared));
  report->Context("exodus_dearer_random", std::to_string(exodus_dearer_random));
  report->Context("executed_vs_naive", std::to_string(executed));
  return failed;
}

}  // namespace

void RunPaperFig4(const RunConfig& cfg, Report* report) {
  std::vector<double> setup_s;
  std::vector<Query> queries;
  for (const Clock::time_point start = Clock::now();
       MoreSetups(setup_s, start);) {
    queries.clear();  // release the previous set-up before timing the next
    const Clock::time_point t = Clock::now();
    queries = BuildQueries(cfg.seed);
    setup_s.push_back(SecondsSince(t));
  }
  report->Context("queries_per_lap", std::to_string(queries.size()));

  if (!cfg.trace) {
    LapResults laps = RunLaps(queries, cfg.seconds, nullptr, nullptr, report);
    const double peak_rss_mb = PeakRssMiB();  // before the checks' oracle
    report->attempted = laps.attempted;
    const uint64_t failed_queries =
        CheckPlans(queries, laps, cfg.seed, report);
    report->failed = laps.failed + laps.timing.rounds() * failed_queries;
    report->Context("laps", std::to_string(laps.timing.rounds()));
    const double ok_per_lap =
        double(laps.attempted - laps.failed) / double(laps.timing.rounds());
    report->Context("latency_samples", std::to_string(laps.latency_s.size()));
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", peak_rss_mb, "MiB");
    report->Add("queries_per_s", ok_per_lap / laps.timing.MeanRound(), "1/s");
    report->Add("latency_p50_us", Quantile(laps.latency_s, 0.50) * 1e6, "us");
    report->Add("latency_p99_us", Quantile(laps.latency_s, 0.99) * 1e6, "us");
    return;
  }

  LayerMetrics layers;
  for (const Query& q : queries) {
    const Clock::time_point t = Clock::now();
    rel::RelModel model(*q.w.catalog);
    layers.model_build_s.push_back(SecondsSince(t));
  }
  LapResults plain =
      RunLaps(queries, cfg.seconds / 2, nullptr, nullptr, report);
  Tracer tracer;
  LapResults traced =
      RunLaps(queries, cfg.seconds / 2, &tracer, &layers, report);
  layers.trace_slowdown =
      traced.timing.MeanRound() / plain.timing.MeanRound();
  report->attempted = plain.attempted + traced.attempted;
  report->failed = plain.failed + traced.failed +
                   (plain.timing.rounds() + traced.timing.rounds()) *
                       CheckPlans(queries, traced, cfg.seed, report);
  report->Context("spans", std::to_string(tracer.spans().size()));
  if (!cfg.trace_out.empty() && !tracer.Write(cfg.trace_out)) {
    std::fprintf(stderr, "warning: cannot write %s\n", cfg.trace_out.c_str());
  }
  layers.AddTo(report);
}

}  // namespace perfbench
