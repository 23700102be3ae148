// Per-layer metrics of a traced run.
//
// Every traced run prints the same set of per-layer metrics, named after the
// modules under src/ (relational, serve, search, exec). A workload fills in
// the layers it calls; a layer it makes no call into reads 0, and README.md
// lists which workload each metric is measured on.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "search/optimizer.h"

namespace perfbench {

/// Search effort summed over Optimize calls; reported per call.
struct SearchTotals {
  uint64_t calls = 0;
  double optimize_s = 0.0;
  double explore_s = 0.0;  ///< PhaseTimers (collect_phase_timing on)
  double pursue_s = 0.0;
  double total_s = 0.0;
  uint64_t mexprs_created = 0;
  uint64_t mexprs_deduped = 0;
  uint64_t groups_created = 0;
  uint64_t cost_estimates = 0;
  uint64_t transformations_applied = 0;
  uint64_t moves_pruned = 0;
  size_t arena_bytes_peak = 0;

  /// Adds one Optimize call that took `seconds` of wall time. `before` is
  /// the optimizer's PhaseTimers before the call: a long-lived optimizer
  /// accumulates them over its lifetime.
  void Add(const volcano::Optimizer& opt, const volcano::PhaseTimers& before,
           double seconds);
};

struct LayerMetrics {
  // relational
  std::vector<double> normalize_s;
  std::vector<double> parse_s;
  std::vector<double> model_build_s;
  // serve
  std::vector<double> cache_probe_s;
  double cache_hit_ratio = 0.0;
  double cache_invalidations = 0.0;
  double cache_evictions = 0.0;
  double model_rebuilds = 0.0;
  double dispatch_s = 0.0;
  // search
  SearchTotals search;
  // exec
  std::vector<double> datagen_s;
  /// Per TPC-H query, in TpchQueryNames() order: summed ExecutePlan
  /// seconds and calls (empty when the workload executes nothing).
  std::vector<double> query_exec_s;
  std::vector<uint64_t> query_exec_calls;
  double exec_rows = 0.0;
  double exec_s = 0.0;
  // the benchmark's own spans: traced loop time / untraced loop time
  double trace_slowdown = 0.0;

  /// Adds every per-layer metric to the report, in a fixed order.
  void AddTo(Report* report) const;
};

/// The TPC-H-shaped query names (q01..q15), in family order.
const std::vector<std::string>& TpchQueryNames();


}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
