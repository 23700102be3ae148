// Workload serve-mix: a closed loop of clients against one serve::Server.
// Each client sends its next request only after the previous response
// arrived. The requests are SQL text from the MakeTpchWorkload
// family: 90 % repeat the 15 queries verbatim, 10 % carry fresh constants
// drawn from a pool of more distinct signatures than the plan cache holds,
// and one request per round of 300 is a catalog write (`!distinct`,
// switching between two values). This is the workload where
// the serve layer and NormalizeSql do most of the work; the writes make a
// gain that costs invalidation, model rebuilds or lock time show up.
//
// Server internals cannot be timed from outside, so the traced run replays
// the same request stream on one thread, calling NormalizeSql,
// Session::Parse, PlanCache and Session::Optimize directly.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common.h"
#include "layers.h"
#include "relational/query_gen.h"
#include "relational/sql.h"
#include "search/search_config.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {
namespace {

namespace rel = volcano::rel;
namespace serve = volcano::serve;
using volcano::StatusOr;

/// Plan-cache entries: the server's default.
const size_t kCacheCapacity = volcano::serve::ServerOptions{}.cache_capacity;
/// Distinct fresh-constant variants per query that has a constant, at most.
/// Queries whose constants allow fewer get fewer; the pool as a whole must
/// hold more signatures than the cache (checked when it is built).
constexpr int kVariantsPerQuery = 160;
/// One round: kRoundSize requests, of which one is a catalog write and
/// kFreshPerRound carry fresh constants; the rest are hot. The 90/10 split
/// of reads is the repository's serving profile (bench/bench_serve.cc,
/// BM_ServeMixedProfile); the write rate, one in a few hundred requests, is
/// an assumption of this benchmark, not measured traffic.
constexpr int kRoundSize = 300;
constexpr int kFreshPerRound = 30;
/// Distinct rounds generated per client; a client cycles through them.
constexpr int kRoundsPerClient = 8;
/// The write target and the two values it switches between (the catalog's
/// own value first).
constexpr const char* kWriteAttr = "lineitem.a4";
constexpr double kWriteValues[2] = {60, 61};
/// A client keeps its first cache hit and every this-many-th one after it
/// for the cold check.
constexpr uint64_t kHitSampleEvery = 499;
constexpr size_t kMaxHitSamples = 64;

struct Rng {
  uint64_t state;
  uint64_t Next() { return state = Mix(state); }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

struct Request {
  enum Kind { kHot, kFresh, kWrite } kind;
  std::string text;  ///< SQL; empty for writes
};
using Round = std::vector<Request>;

/// Rewrites every integer constant that follows a comparison operator in
/// `sql` with a draw from [1, max(40, 3 * original)].
std::string WithFreshConstants(const std::string& sql, Rng& rng) {
  std::string out;
  size_t i = 0;
  while (i < sql.size()) {
    const bool after_op = i >= 2 && sql[i - 1] == ' ' &&
                          (sql[i - 2] == '<' || sql[i - 2] == '>' ||
                           sql[i - 2] == '=');
    if (after_op && std::isdigit(static_cast<unsigned char>(sql[i]))) {
      size_t j = i;
      while (j < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[j]))) {
        ++j;
      }
      const uint64_t original = std::stoull(sql.substr(i, j - i));
      const uint64_t hi = std::max<uint64_t>(40, 3 * original);
      out += std::to_string(1 + rng.Below(hi));
      i = j;
    } else {
      out += sql[i++];
    }
  }
  return out;
}

struct Stream {
  std::vector<std::string> hot;
  /// Fresh-constant variants, per query that has a constant.
  std::vector<std::vector<std::string>> fresh;
  size_t fresh_signatures = 0;
  std::vector<std::vector<Round>> rounds;  ///< per client
};

Stream BuildStream(uint64_t seed, int clients) {
  Stream s;
  Rng rng{Mix(seed)};
  for (const rel::TpchQuery& q : rel::MakeTpchWorkload().queries) {
    s.hot.push_back(q.sql);
    std::set<std::string> variants;
    for (int tries = 0; tries < 8 * kVariantsPerQuery &&
                        int(variants.size()) < kVariantsPerQuery;
         ++tries) {
      std::string v = WithFreshConstants(q.sql, rng);
      if (v != q.sql) variants.insert(std::move(v));
    }
    if (variants.empty()) continue;
    s.fresh_signatures += variants.size();
    s.fresh.emplace_back(variants.begin(), variants.end());
  }
  VOLCANO_CHECK(s.fresh_signatures > kCacheCapacity);
  s.rounds.resize(clients);
  for (int c = 0; c < clients; ++c) {
    for (int r = 0; r < kRoundsPerClient; ++r) {
      Round round;
      round.push_back({Request::kWrite, ""});
      for (int i = 0; i < kFreshPerRound; ++i) {
        // A query, then one of its variants: the fresh requests spread over
        // the queries as the hot ones do.
        const std::vector<std::string>& v = s.fresh[rng.Below(s.fresh.size())];
        round.push_back({Request::kFresh, v[rng.Below(v.size())]});
      }
      while (int(round.size()) < kRoundSize) {
        round.push_back({Request::kHot, s.hot[rng.Below(s.hot.size())]});
      }
      for (size_t i = round.size() - 1; i > 0; --i) {
        std::swap(round[i], round[rng.Below(i + 1)]);
      }
      s.rounds[c].push_back(std::move(round));
    }
  }
  return s;
}

/// Writes alternate between the two values across all clients.
std::string WriteText(int value_index) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "!distinct %s %g", kWriteAttr,
                kWriteValues[value_index]);
  return buf;
}

/// Client and server thread counts: two clients and one server worker
/// (one client on a host with fewer than three cores). A client waits for
/// its response by spinning, and the one worker finds the other client's
/// request queued most of the time, so neither sleeps between requests. On a
/// shared virtual machine, waking a sleeping thread whose virtual CPU has
/// gone idle takes as long as the host needs to run that CPU again: with
/// sleeping clients and two workers, throughput moved by up to 3x from run
/// to run with the host's load.
struct Threads {
  int clients;
  int workers;
};
Threads ThreadCounts() {
  const int cores = int(std::max(2u, std::thread::hardware_concurrency()));
  return {std::min(2, cores - 1), 1};
}

/// Sends one request and waits for its response, spinning on a flag that
/// the server's completion callback sets (see ThreadCounts).
std::string Send(serve::Server& server, std::string line) {
  std::string resp;
  std::atomic<bool> answered{false};
  server.Submit(std::move(line), [&](std::string r) {
    resp = std::move(r);
    answered.store(true, std::memory_order_release);
  });
  while (!answered.load(std::memory_order_acquire)) {
  }
  return resp;
}

struct ServerSetup {
  std::unique_ptr<rel::Catalog> catalog;
  std::unique_ptr<serve::Server> server;
  const Stream* stream = nullptr;  ///< the request stream, built apart
  uint64_t submitted = 0;  ///< warm-up requests already sent
};

ServerSetup BuildServerSetup(const Stream& stream, const Threads& threads) {
  ServerSetup s;
  s.catalog = std::move(rel::MakeTpchWorkload().catalog);
  s.stream = &stream;
  serve::ServerOptions opts;
  opts.workers = threads.workers;
  opts.cache_capacity = kCacheCapacity;
  s.server = std::make_unique<serve::Server>(s.catalog.get(), opts);
  // Warm-up: every hot query once, so the timed loop starts from a filled
  // cache and a built session. All are queued at once, so the worker runs
  // them back to back instead of waking once per request.
  std::atomic<size_t> answered{0};
  for (const std::string& sql : s.stream->hot) {
    s.server->Submit(sql, [&answered](std::string) {
      answered.fetch_add(1, std::memory_order_release);
    });
    ++s.submitted;
  }
  while (answered.load(std::memory_order_acquire) < s.stream->hot.size()) {
  }
  return s;
}

/// Completions are counted per window of this length; queries_per_s is the
/// median window's rate.
constexpr double kWindowSeconds = 0.1;

/// Latency percentiles are taken per client and second, then the median
/// over those windows is reported. A window's samples are kept only until
/// the window ends, so a client's memory does not grow with the run.
constexpr double kLatencyWindowSeconds = 1.0;

struct ClientLog {
  explicit ClientLog(double seconds)
      : completions(size_t(seconds / kWindowSeconds) + 1, 0),
        latency_windows(size_t(seconds / kLatencyWindowSeconds)) {
    window_latency_s.reserve(1 << 16);
  }
  /// Closes the current latency window: its percentiles count when it lay
  /// wholly before the deadline, or when the run was too short to have such
  /// a window.
  void CloseLatencyWindow(bool last) {
    if (!window_latency_s.empty() &&
        (latency_window < latency_windows || (last && p50_s.empty()))) {
      p50_s.push_back(Quantile(window_latency_s, 0.50));
      p99_s.push_back(Quantile(window_latency_s, 0.99));
    }
    window_latency_s.clear();
  }

  /// The catalog versions the client saw, each time it changed.
  std::vector<uint64_t> versions;
  /// (catalog version after the write, value index) of each write.
  std::vector<std::pair<uint64_t, int>> writes;
  /// (SQL, response) of sampled cache hits.
  std::vector<std::pair<std::string, std::string>> hit_samples;
  /// Completed requests per window, for the windows before the deadline.
  std::vector<uint32_t> completions;
  /// The current latency window's samples and index, the number of whole
  /// windows before the deadline, and the closed windows' percentiles.
  std::vector<double> window_latency_s;
  size_t latency_window = 0;
  size_t latency_windows = 0;
  std::vector<double> p50_s, p99_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t hits = 0;
  uint64_t rounds = 0;
};

struct LoopResult {
  std::vector<ClientLog> clients;
};

LoopResult RunClosedLoop(ServerSetup& s, double seconds) {
  const int clients = int(s.stream->rounds.size());
  LoopResult out;
  for (int c = 0; c < clients; ++c) out.clients.emplace_back(seconds);
  std::atomic<uint64_t> write_counter{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = out.clients[c];
      const std::vector<Round>& rounds = s.stream->rounds[c];
      do {
        for (const Request& req : rounds[log.rounds % rounds.size()]) {
          int value = 0;
          std::string text = req.text;
          if (req.kind == Request::kWrite) {
            // Value index 1 on odd writes, back to the catalog's own value
            // on even ones.
            value = int((write_counter.fetch_add(1) + 1) % 2);
            text = WriteText(value);
          }
          const Clock::time_point t0 = Clock::now();
          std::string resp = Send(*s.server, std::move(text));
          const Clock::time_point t1 = Clock::now();
          const double lat = std::chrono::duration<double>(t1 - t0).count();
          const double t = std::chrono::duration<double>(t1 - start).count();
          const size_t window = size_t(t / kWindowSeconds);
          if (window < log.completions.size()) ++log.completions[window];
          if (size_t w = size_t(t / kLatencyWindowSeconds);
              w != log.latency_window) {
            log.CloseLatencyWindow(false);
            log.latency_window = w;
          }
          log.window_latency_s.push_back(lat);
          ++log.attempted;
          if (!JsonTrue(resp, "ok")) {
            ++log.failed;
            continue;
          }
          const uint64_t version = JsonUint(resp, "catalog_version", 0);
          if (log.versions.empty() || log.versions.back() != version) {
            log.versions.push_back(version);
          }
          if (req.kind == Request::kWrite) {
            log.writes.push_back({version, value});
          } else if (JsonTrue(resp, "cached")) {
            if (log.hits++ % kHitSampleEvery == 0 &&
                log.hit_samples.size() < kMaxHitSamples) {
              log.hit_samples.push_back({req.text, std::move(resp)});
            }
          }
        }
        ++log.rounds;
      } while (SecondsSince(start) < seconds);
      log.CloseLatencyWindow(true);
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// Requests completed per second: the median over the windows before the
/// deadline of all clients' completions, so the host's short stalls do not
/// move it.
double MedianWindowRate(const LoopResult& loop) {
  std::vector<double> rates;
  const size_t windows = loop.clients.front().completions.size() - 1;
  for (size_t w = 0; w < windows; ++w) {
    double n = 0;
    for (const ClientLog& log : loop.clients) n += log.completions[w];
    rates.push_back(n / kWindowSeconds);
  }
  return Median(rates);
}

/// Passes over the hot queries for serve.dispatch_us.
constexpr int kIdleHitPasses = 200;

/// Server::HandleLine wall time of cache hits on hot SQL, sent one at a time
/// from this thread while the closed loop's clients are stopped, so that no
/// other request is queued or running. One pass first refills the cache
/// (the loop's last write may have emptied it). Counts the requests it
/// sends in `attempted` and those not answered ok in `failed`.
std::vector<double> IdleHitLatencies(ServerSetup& s, uint64_t* attempted,
                                     uint64_t* failed) {
  std::vector<double> out;
  for (int pass = 0; pass <= kIdleHitPasses; ++pass) {
    for (const std::string& sql : s.stream->hot) {
      const Clock::time_point t0 = Clock::now();
      const std::string resp = s.server->HandleLine(sql);
      const double lat = SecondsSince(t0);
      ++s.submitted;
      ++*attempted;
      if (!JsonTrue(resp, "ok")) ++*failed;
      if (pass > 0 && JsonTrue(resp, "cached")) out.push_back(lat);
    }
  }
  return out;
}

/// Accounting, monotonic versions per client, and sampled cache hits against
/// a cold Session over the same catalog state.
uint64_t CheckLoop(ServerSetup& s, const LoopResult& loop, Report* report) {
  uint64_t failed = 0;
  uint64_t submitted = s.submitted;
  std::map<uint64_t, int> value_at_version;  // write version -> value index
  for (const ClientLog& log : loop.clients) {
    submitted += log.attempted;
    std::string why = CheckVersionsMonotonic(log.versions);
    if (!why.empty()) {
      report->CheckFailed("serve-mix: " + why);
      ++failed;
    }
    for (const auto& [version, value] : log.writes) {
      value_at_version[version] = value;
    }
  }
  s.server->Drain();
  std::string why = CheckServeAccounting(s.server->stats(), submitted);
  if (!why.empty()) {
    report->CheckFailed("serve-mix: " + why);
    ++failed;
  }

  // One cold catalog per write value; a hit at version v saw the value of
  // the last write at or below v.
  std::unique_ptr<rel::Catalog> cold_catalogs[2];
  std::optional<serve::Session> cold[2];
  size_t checked = 0;
  for (const ClientLog& log : loop.clients) {
    for (const auto& [sql, resp] : log.hit_samples) {
      const uint64_t version = JsonUint(resp, "catalog_version", 0);
      auto it = value_at_version.upper_bound(version);
      const int value =
          it == value_at_version.begin() ? 0 : std::prev(it)->second;
      if (!cold[value]) {
        cold_catalogs[value] = std::move(rel::MakeTpchWorkload().catalog);
        rel::Catalog& cat = *cold_catalogs[value];
        if (value != 0) {
          VOLCANO_CHECK(cat.SetDistinct(cat.symbols().Lookup(kWriteAttr),
                                        kWriteValues[value])
                            .ok());
        }
        cold[value].emplace(cat,
                            volcano::SearchConfig::FromOptions({}).value());
      }
      why = CheckCachedMatchesCold(
          resp, cold[value]->OptimizeSql(sql, {}, /*exodus_fallback=*/true));
      if (!why.empty()) {
        report->CheckFailed("serve-mix: " + why);
        ++failed;
      }
      ++checked;
    }
  }
  report->Context("hits_checked_cold", std::to_string(checked));
  if (checked == 0) report->CheckFailed("serve-mix: no cache hit was sampled");
  return failed;
}

/// The single-thread replay: the server's hit path, called layer by layer.
struct Replay {
  std::unique_ptr<rel::Catalog> catalog;
  std::unique_ptr<serve::PlanCache> cache;
  std::optional<serve::Session> session;
};

Replay MakeReplay(bool phase_timing) {
  Replay r;
  r.catalog = std::move(rel::MakeTpchWorkload().catalog);
  r.cache = std::make_unique<serve::PlanCache>(kCacheCapacity);
  volcano::SearchOptions so;
  so.collect_phase_timing = phase_timing;
  r.session.emplace(*r.catalog,
                    volcano::SearchConfig::FromOptions(so).value());
  return r;
}

struct ReplayResult {
  LoopTiming timing;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// normalize + parse + probe seconds of each cache hit on hot SQL.
  std::vector<double> hit_front_s;
};

ReplayResult RunReplay(const Stream& stream, double seconds, Tracer* tracer,
                       LayerMetrics* layers) {
  Replay r = MakeReplay(tracer != nullptr);
  serve::Session& session = *r.session;
  const volcano::Symbol write_attr = r.catalog->symbols().Lookup(kWriteAttr);
  ReplayResult out;
  uint64_t writes = 0, op = 0;
  const size_t clients = stream.rounds.size();
  const Clock::time_point start = Clock::now();
  do {
    // Round k of every client in turn, as one thread.
    const size_t k = out.timing.rounds();
    const Round& round =
        stream.rounds[k % clients][(k / clients) % kRoundsPerClient];
    const Clock::time_point round_start = Clock::now();
    for (const Request& req : round) {
      ++out.attempted;
      ++op;
      ScopedSpan request_span(tracer, "request", op);
      const int32_t parent = request_span.id();
      if (req.kind == Request::kWrite) {
        ScopedSpan sp(tracer, "relational.catalog_write", op, parent);
        if (!r.catalog->SetDistinct(write_attr, kWriteValues[++writes % 2])
                 .ok()) {
          ++out.failed;
        }
        r.cache->InvalidateOlderThan(r.catalog->version());
        continue;
      }
      const uint64_t version = r.catalog->version();
      if (session.model_version() != version) {
        ScopedSpan sp(tracer, "relational.model_build", op, parent);
        session.SyncCatalog();
      }
      const Clock::time_point t0 = Clock::now();
      StatusOr<std::string> signature = [&] {
        ScopedSpan sp(tracer, "relational.normalize", op, parent);
        return rel::NormalizeSql(req.text, *r.catalog);
      }();
      if (!signature.ok()) {
        ++out.failed;
        continue;
      }
      StatusOr<rel::ParsedQuery> parsed = [&] {
        ScopedSpan sp(tracer, "relational.parse", op, parent);
        return session.Parse(req.text);
      }();
      if (!parsed.ok()) {
        ++out.failed;
        continue;
      }
      const std::string required = parsed->required->ToString();
      std::optional<serve::CachedPlan> hit = [&] {
        ScopedSpan sp(tracer, "serve.cache_probe", op, parent);
        return r.cache->Lookup(*signature, version, required);
      }();
      if (hit) {
        if (req.kind == Request::kHot) {
          out.hit_front_s.push_back(SecondsSince(t0));
        }
        continue;
      }
      const volcano::PhaseTimers before = session.optimizer().metrics().phases;
      const Clock::time_point t_opt = Clock::now();
      serve::Session::Result res = [&] {
        ScopedSpan sp(tracer, "search.optimize", op, parent);
        return session.Optimize(*parsed, {}, /*exodus_fallback=*/true);
      }();
      if (layers != nullptr) {
        layers->search.Add(session.optimizer(), before, SecondsSince(t_opt));
      }
      if (!res.status.ok()) {
        ++out.failed;
        continue;
      }
      if (!res.degraded) {
        r.cache->Insert(*signature, version, required,
                        {res.algebra, res.required, res.plan, res.cost});
      }
    }
    out.timing.round_s.push_back(SecondsSince(round_start));
  } while (SecondsSince(start) < seconds);
  return out;
}

}  // namespace

void RunServeMix(const RunConfig& cfg, Report* report) {
  const Threads threads = ThreadCounts();
  report->Context("clients", std::to_string(threads.clients));
  report->Context("server_workers", std::to_string(threads.workers));
  // The request stream is the benchmark's input, not the program's set-up:
  // built once, before set-up is timed.
  const Stream stream = BuildStream(cfg.seed, threads.clients);
  std::vector<double> setup_s;
  std::optional<ServerSetup> setup;
  for (const Clock::time_point start = Clock::now();
       MoreSetups(setup_s, start);) {
    setup.reset();  // joins the previous server's workers
    const Clock::time_point t = Clock::now();
    setup.emplace(BuildServerSetup(stream, threads));
    setup_s.push_back(SecondsSince(t));
  }
  ServerSetup& s = *setup;
  report->Context("fresh_signatures",
                  std::to_string(stream.fresh_signatures));
  report->Context("cache_capacity", std::to_string(kCacheCapacity));

  // The traced run splits its time: the server loop (for ServeStats), the
  // idle hits (for serve.dispatch_us), then the replay untraced and traced.
  const double loop_seconds = cfg.trace ? cfg.seconds / 3 : cfg.seconds;
  LoopResult loop = RunClosedLoop(s, loop_seconds);
  const double peak_rss_mb = PeakRssMiB();  // before the cold checks
  uint64_t attempted = 0, failed = 0, rounds = 0;
  std::vector<double> p50_s, p99_s;
  for (const ClientLog& log : loop.clients) {
    attempted += log.attempted;
    failed += log.failed;
    rounds += log.rounds;
    p50_s.insert(p50_s.end(), log.p50_s.begin(), log.p50_s.end());
    p99_s.insert(p99_s.end(), log.p99_s.begin(), log.p99_s.end());
  }
  // The loop's own counters, before the traced run's idle hits.
  const volcano::serve::ServeStats stats = s.server->stats();
  const std::vector<double> idle_hit_s =
      cfg.trace ? IdleHitLatencies(s, &attempted, &failed)
                : std::vector<double>{};
  failed += CheckLoop(s, loop, report);
  report->Context("rounds", std::to_string(rounds));
  report->Context("latency_windows", std::to_string(p50_s.size()));

  if (!cfg.trace) {
    report->attempted = attempted;
    report->failed = failed;
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", peak_rss_mb, "MiB");
    report->Add("queries_per_s", MedianWindowRate(loop), "1/s");
    report->Add("latency_p50_us", Median(p50_s) * 1e6, "us");
    report->Add("latency_p99_us", Median(p99_s) * 1e6, "us");
    return;
  }

  LayerMetrics layers;
  const double probes = double(stats.cache_hits + stats.cache_misses);
  layers.cache_hit_ratio = probes == 0 ? 0.0 : stats.cache_hits / probes;
  layers.cache_invalidations = double(stats.cache_invalidations);
  layers.cache_evictions = double(stats.cache_evictions);
  layers.model_rebuilds = double(stats.model_rebuilds);

  ReplayResult plain = RunReplay(stream, cfg.seconds / 3, nullptr, nullptr);
  Tracer tracer;
  ReplayResult traced = RunReplay(stream, cfg.seconds / 3, &tracer, &layers);
  layers.trace_slowdown =
      traced.timing.MeanRound() / plain.timing.MeanRound();
  layers.normalize_s = tracer.Durations("relational.normalize");
  layers.parse_s = tracer.Durations("relational.parse");
  layers.model_build_s = tracer.Durations("relational.model_build");
  layers.cache_probe_s = tracer.Durations("serve.cache_probe");
  layers.dispatch_s = Median(idle_hit_s) - Median(traced.hit_front_s);

  report->attempted = attempted + plain.attempted + traced.attempted;
  report->failed = failed + plain.failed + traced.failed;
  report->Context("spans", std::to_string(tracer.spans().size()));
  if (!cfg.trace_out.empty() && !tracer.Write(cfg.trace_out)) {
    std::fprintf(stderr, "warning: cannot write %s\n", cfg.trace_out.c_str());
  }
  layers.AddTo(report);
}

}  // namespace perfbench
