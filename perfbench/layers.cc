#include "layers.h"

#include <algorithm>

#include "relational/query_gen.h"

namespace perfbench {

void SearchTotals::Add(const volcano::Optimizer& opt,
                       const volcano::PhaseTimers& before, double seconds) {
  const volcano::SearchStats s = opt.stats();
  const volcano::PhaseTimers& now = opt.metrics().phases;
  ++calls;
  optimize_s += seconds;
  explore_s += now.explore_seconds - before.explore_seconds;
  pursue_s += now.pursue_seconds - before.pursue_seconds;
  total_s += now.total_seconds - before.total_seconds;
  mexprs_created += s.mexprs_created;
  mexprs_deduped += s.mexprs_deduped;
  groups_created += s.groups_created;
  cost_estimates += s.cost_estimates;
  transformations_applied += s.transformations_applied;
  moves_pruned += s.moves_pruned;
  arena_bytes_peak = std::max(arena_bytes_peak, opt.memo().arena_bytes());
}

const std::vector<std::string>& TpchQueryNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& q : volcano::rel::MakeTpchWorkload().queries) {
      out.push_back(q.name);
    }
    return out;
  }();
  return names;
}

void LayerMetrics::AddTo(Report* r) const {
  r->Add("relational.normalize_us", Mean(normalize_s) * 1e6, "us");
  r->Add("relational.parse_us", Mean(parse_s) * 1e6, "us");
  r->Add("relational.model_build_ms", Median(model_build_s) * 1e3, "ms");

  r->Add("serve.cache_probe_us", Mean(cache_probe_s) * 1e6, "us");
  r->Add("serve.cache_hit_ratio", cache_hit_ratio, "ratio");
  r->Add("serve.cache_invalidations", cache_invalidations, "count");
  r->Add("serve.cache_evictions", cache_evictions, "count");
  r->Add("serve.model_rebuilds", model_rebuilds, "count");
  r->Add("serve.dispatch_us", dispatch_s * 1e6, "us");

  const double calls = search.calls == 0 ? 1.0 : double(search.calls);
  r->Add("search.optimize_us", search.optimize_s / calls * 1e6, "us");
  r->Add("search.explore_ms", search.explore_s / calls * 1e3, "ms");
  r->Add("search.pursue_ms", search.pursue_s / calls * 1e3, "ms");
  r->Add("search.other_ms",
         (search.total_s - search.explore_s - search.pursue_s) / calls * 1e3,
         "ms");
  r->Add("search.mexprs_created", double(search.mexprs_created) / calls,
         "count");
  r->Add("search.groups_created", double(search.groups_created) / calls,
         "count");
  r->Add("search.cost_estimates", double(search.cost_estimates) / calls,
         "count");
  r->Add("search.transformations_applied",
         double(search.transformations_applied) / calls, "count");
  r->Add("search.moves_pruned", double(search.moves_pruned) / calls, "count");
  const double derivations =
      double(search.mexprs_created) + double(search.mexprs_deduped);
  r->Add("search.dedup_ratio",
         derivations == 0 ? 0.0 : double(search.mexprs_deduped) / derivations,
         "ratio");
  r->Add("search.arena_bytes", double(search.arena_bytes_peak), "bytes");

  r->Add("exec.datagen_s", Median(datagen_s), "s");
  const std::vector<std::string>& names = TpchQueryNames();
  for (size_t i = 0; i < names.size(); ++i) {
    const bool ran = i < query_exec_calls.size() && query_exec_calls[i] > 0;
    r->Add("exec.query_ms." + names[i],
           ran ? query_exec_s[i] / double(query_exec_calls[i]) * 1e3 : 0.0,
           "ms");
  }
  r->Add("exec.rows_per_s", exec_s == 0 ? 0.0 : exec_rows / exec_s, "1/s");

  r->Add("trace.slowdown", trace_slowdown, "ratio");
}

}  // namespace perfbench
