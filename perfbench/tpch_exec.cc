// Workload tpch-exec: one thread runs laps over the 15 TPC-H-shaped queries;
// each query is parsed, optimized and executed to its last row. The data is
// MakeTpchWorkload's schema scaled up through the public Catalog API, so the
// executor does almost all the work (ROADMAP item 5 has to show here).

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "layers.h"
#include "relational/query_gen.h"
#include "relational/sql.h"
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
using volcano::Symbol;

/// Multiplies the base relations' cardinalities by this factor. At 4x one
/// lap executes for about 55 ms and optimizes for about 2 ms on a 4-core
/// x86 host, so execution dominates.
constexpr double kScale = 4.0;

/// Relations that keep their size: TPC-H fixes region at 5 and nation at 25
/// rows at every scale factor.
bool FixedSize(const std::string& relation) {
  return relation == "region" || relation == "nation";
}

/// Derives the scaled catalog from `base`: every relation except region and
/// nation, and every key or foreign-key distinct count, times `scale`. A
/// key or foreign key is an attribute whose distinct count equals the
/// cardinality of a scaled relation (MakeTpchWorkload builds its foreign
/// keys that way, see query_gen.h).
std::unique_ptr<rel::Catalog> ScaledCatalog(const rel::Catalog& base,
                                            double scale) {
  std::set<double> key_domains;
  for (Symbol r : base.RelationNames()) {
    if (!FixedSize(base.symbols().Name(r))) {
      key_domains.insert(base.FindRelation(r)->cardinality);
    }
  }
  auto out = std::make_unique<rel::Catalog>();
  for (Symbol r : base.RelationNames()) {
    const rel::RelationInfo& info = *base.FindRelation(r);
    const std::string& name = base.symbols().Name(r);
    const double factor = FixedSize(name) ? 1.0 : scale;
    std::vector<double> distincts;
    for (const rel::AttributeInfo& a : info.attributes) {
      distincts.push_back(a.distinct_values *
                          (key_domains.count(a.distinct_values) ? scale : 1.0));
    }
    StatusOr<Symbol> added =
        out->AddRelation(name, info.cardinality * factor, info.tuple_bytes,
                         static_cast<int>(info.attributes.size()), distincts);
    VOLCANO_CHECK(added.ok());
    std::vector<Symbol> order;
    for (Symbol a : info.sorted_on) {
      order.push_back(out->symbols().Lookup(base.symbols().Name(a)));
    }
    if (!order.empty()) VOLCANO_CHECK(out->SetSortedOn(*added, order).ok());
  }
  return out;
}

struct Setup {
  std::unique_ptr<rel::Catalog> catalog;
  std::unique_ptr<rel::RelModel> model;
  std::vector<rel::TpchQuery> queries;
  exec::Database db;
  double model_build_s = 0.0;
  double datagen_s = 0.0;
};

Setup BuildSetup(uint64_t seed) {
  Setup s;
  rel::TpchWorkload base = rel::MakeTpchWorkload();
  s.catalog = ScaledCatalog(*base.catalog, kScale);
  s.queries = base.queries;
  Clock::time_point t = Clock::now();
  s.model = std::make_unique<rel::RelModel>(*s.catalog);
  s.model_build_s = SecondsSince(t);
  t = Clock::now();
  s.db = exec::GenerateDatabase(*s.catalog, seed);
  s.datagen_s = SecondsSince(t);
  return s;
}

/// What the timed laps produced, for the accounting and the checks.
struct LapResults {
  LoopTiming timing;
  std::vector<double> latency_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per query: every distinct result row count the laps saw.
  std::vector<std::set<size_t>> row_counts;
};

/// Runs whole laps over the family until `seconds` have passed. With a
/// tracer, records parse/optimize/execute spans and fills `layers`.
LapResults RunLaps(Setup& s, double seconds, Tracer* tracer,
                   LayerMetrics* layers) {
  SearchOptions so;
  so.collect_phase_timing = tracer != nullptr;
  const SearchConfig config = SearchConfig::FromOptions(so).value();
  LapResults out;
  out.row_counts.resize(s.queries.size());
  uint64_t op = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point round_start = Clock::now();
    for (size_t i = 0; i < s.queries.size(); ++i, ++op) {
      const rel::TpchQuery& q = s.queries[i];
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      ScopedSpan query_span(tracer, "query", op);
      StatusOr<rel::ParsedQuery> parsed = [&] {
        ScopedSpan sp(tracer, "relational.parse", op, query_span.id());
        return rel::ParseSql(q.sql, *s.model, s.catalog->symbols());
      }();
      if (!parsed.ok()) {
        ++out.failed;
        continue;
      }
      Optimizer opt(*s.model, config);
      const volcano::PhaseTimers before = opt.metrics().phases;
      const Clock::time_point t_opt = Clock::now();
      StatusOr<PlanPtr> plan = [&] {
        ScopedSpan sp(tracer, "search.optimize", op, query_span.id());
        return opt.Optimize(*parsed->expr, parsed->required);
      }();
      const double opt_s = SecondsSince(t_opt);
      if (!plan.ok()) {
        ++out.failed;
        continue;
      }
      const Clock::time_point t_exec = Clock::now();
      std::vector<exec::Row> rows = [&] {
        ScopedSpan sp(tracer, "exec.execute", op, query_span.id());
        return exec::ExecutePlan(**plan, *s.model, s.db);
      }();
      const double exec_s = SecondsSince(t_exec);
      out.latency_s.push_back(SecondsSince(t0));
      out.row_counts[i].insert(rows.size());
      if (layers != nullptr) {
        layers->search.Add(opt, before, opt_s);
        layers->query_exec_s[i] += exec_s;
        ++layers->query_exec_calls[i];
        layers->exec_rows += static_cast<double>(rows.size());
        layers->exec_s += exec_s;
      }
    }
    out.timing.round_s.push_back(SecondsSince(round_start));
  } while (SecondsSince(start) < seconds);
  if (tracer != nullptr) {
    layers->parse_s = tracer->Durations("relational.parse");
  }
  return out;
}

/// Outside the timed laps: every query's plan is valid, its rows equal the
/// naive evaluator's, and every lap returned that many rows. Returns the
/// number of queries that failed a check; each counts as one failed
/// operation per lap.
uint64_t CheckAgainstOracle(Setup& s, const LapResults& laps,
                            Report* report) {
  uint64_t failed = 0;
  for (size_t i = 0; i < s.queries.size(); ++i) {
    const rel::TpchQuery& q = s.queries[i];
    StatusOr<rel::ParsedQuery> parsed =
        rel::ParseSql(q.sql, *s.model, s.catalog->symbols());
    if (!parsed.ok()) continue;  // already counted as failed in every lap
    Optimizer opt(*s.model);
    StatusOr<PlanPtr> plan = opt.Optimize(*parsed->expr, parsed->required);
    if (!plan.ok()) continue;
    std::string why = CheckPlanValid(**plan, parsed->required, *s.model);
    std::vector<exec::Row> rows = exec::ExecutePlan(**plan, *s.model, s.db);
    if (why.empty()) {
      why = CheckAgainstNaive(**plan, rows, *parsed->expr, parsed->required,
                              *s.model, s.db);
    }
    if (why.empty() && (laps.row_counts[i].size() != 1 ||
                        *laps.row_counts[i].begin() != rows.size())) {
      why = "a timed lap returned a different row count";
    }
    if (!why.empty()) {
      report->CheckFailed("tpch-exec " + q.name + ": " + why);
      ++failed;
    }
  }
  return failed;
}

}  // namespace

void RunTpchExec(const RunConfig& cfg, Report* report) {
  std::vector<double> setup_s, model_build_s, datagen_s;
  std::optional<Setup> setup;
  for (const Clock::time_point start = Clock::now();
       MoreSetups(setup_s, start);) {
    setup.reset();  // release the previous set-up before timing the next
    const Clock::time_point t = Clock::now();
    setup.emplace(BuildSetup(cfg.seed));
    setup_s.push_back(SecondsSince(t));
    model_build_s.push_back(setup->model_build_s);
    datagen_s.push_back(setup->datagen_s);
  }
  Setup& s = *setup;
  report->Context("scale_factor", std::to_string(kScale));

  if (!cfg.trace) {
    LapResults laps = RunLaps(s, cfg.seconds, nullptr, nullptr);
    const double peak_rss_mb = PeakRssMiB();  // before the checks' oracle
    report->attempted = laps.attempted;
    report->failed = laps.failed + laps.timing.rounds() *
                                       CheckAgainstOracle(s, laps, report);
    report->Context("laps", std::to_string(laps.timing.rounds()));
    size_t rows_per_lap = 0;
    for (const std::set<size_t>& counts : laps.row_counts) {
      if (!counts.empty()) rows_per_lap += *counts.begin();
    }
    report->Context("rows_per_lap", std::to_string(rows_per_lap));
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

  // Traced run: the same laps untraced, then traced; the per-layer metrics
  // come from the traced half.
  LayerMetrics layers;
  layers.model_build_s = model_build_s;
  layers.datagen_s = datagen_s;
  layers.query_exec_s.assign(s.queries.size(), 0.0);
  layers.query_exec_calls.assign(s.queries.size(), 0);
  LapResults plain = RunLaps(s, cfg.seconds / 2, nullptr, nullptr);
  Tracer tracer;
  LapResults traced = RunLaps(s, cfg.seconds / 2, &tracer, &layers);
  layers.trace_slowdown =
      traced.timing.MeanRound() / plain.timing.MeanRound();
  report->attempted = plain.attempted + traced.attempted;
  report->failed = plain.failed + traced.failed +
                   (plain.timing.rounds() + traced.timing.rounds()) *
                       CheckAgainstOracle(s, traced, report);
  report->Context("spans", std::to_string(tracer.spans().size()));
  if (!cfg.trace_out.empty() && !tracer.Write(cfg.trace_out)) {
    std::fprintf(stderr, "warning: cannot write %s\n", cfg.trace_out.c_str());
  }
  layers.AddTo(report);
}

}  // namespace perfbench
