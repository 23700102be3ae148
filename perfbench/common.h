// Shared pieces of the end-to-end benchmark: the run configuration, the
// result report (metrics, attempted/failed operations, correctness), the
// in-memory span tracer, and small statistics helpers.
//
// Every timing is wall-clock (std::chrono::steady_clock). Nothing here reads
// a thread's CPU time: the serving workload hands each request to a worker
// thread, and CPU time on the submitting thread would leave that work out.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64's finaliser: spreads a seed's bits, for deriving inputs.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file written by a traced run ("" = none)
};

/// What one run prints: its metrics in order, the operation accounting, and
/// whether every correctness check passed.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check. The run then reports
  /// "correct": false and names the check on standard error.
  void CheckFailed(const std::string& what);
  void Context(std::string key, std::string value) {
    context_.push_back({std::move(key), std::move(value)});
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return correct_; }

  /// Prints the context line and, as the last line of standard output, the
  /// result object {"correct", "attempted", "failed", "metrics"}.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  bool correct_ = true;
};

/// Spans around calls into the program's layers, kept in memory and written
/// out when the run ends. A span records its name, start, end, the span that
/// caused it and the operation (request) it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t request;
  };

  Tracer() { spans_.reserve(1 << 16); }

  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1) {
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

  /// Durations in seconds of the closed spans named `name`.
  std::vector<double> Durations(const char* name) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span, the first `max_spans` of them (a
  /// traced serve-mix run records millions). Returns false when the file
  /// cannot be written.
  bool Write(const std::string& path, size_t max_spans = 200000) const;

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
};

/// A span that closes when it goes out of scope; does nothing when the
/// tracer is null (the untraced loop of a traced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t request,
             int32_t parent = -1)
      : t_(t), id_(t ? t->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* t_;
  int32_t id_;
};

/// The q-quantile (0..1) of `v` by nearest rank; 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

/// Mean of `v`; 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Median of `v`; 0 for an empty vector.
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process in MiB (VmHWM). Ends the program
/// with an error when the kernel does not report it.
double PeakRssMiB();

/// The workloads. Each fills `report` with the end-to-end metrics (untraced
/// run) or the per-layer metrics (traced run).
void RunServeMix(const RunConfig& cfg, Report* report);
void RunTpchExec(const RunConfig& cfg, Report* report);
void RunPaperFig4(const RunConfig& cfg, Report* report);

/// The wall time of each whole round of a timed loop. A loop always finishes
/// the round it is in, so every run attempts whole rounds of the same
/// operations.
struct LoopTiming {
  std::vector<double> round_s;
  uint64_t rounds() const { return round_s.size(); }
  /// Seconds per round over the whole loop. A shared host's speed moves by
  /// tens of percent for tens of seconds at a time; the mean weighs each of
  /// its spells within a run by its length, where a median would report
  /// whichever spell held most of the run.
  double MeanRound() const { return Mean(round_s); }
};

/// Set-up runs at least kSetups times and for at least kSetupSeconds per
/// run; setup_s is the median. A set-up of a few milliseconds repeated a
/// fixed number of times would fall wholly into one of the host's slow
/// spells.
constexpr size_t kSetups = 9;
constexpr double kSetupSeconds = 1.0;
inline bool MoreSetups(const std::vector<double>& setup_s,
                       Clock::time_point start) {
  return setup_s.size() < kSetups || SecondsSince(start) < kSetupSeconds;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
