// volcano_perfbench: one workload of the end-to-end benchmark per run.
//
//   volcano_perfbench --workload serve-mix|tpch-exec|paper-fig4 --seed N
//                     --seconds S --trace 0|1 [--trace-out FILE]
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, measured with spans around calls into each
// layer, and writes the spans to --trace-out. The last line of standard
// output is the result object; see README.md.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: volcano_perfbench --workload "
               "serve-mix|tpch-exec|paper-fig4 --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    uint64_t v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      cfg.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUint(value, &cfg.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUint(value, &v) || v < 1 || v > 60) {
        return Usage("--seconds must be a whole number from 1 to 60");
      }
      cfg.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseUint(value, &v) || v > 1) {
        return Usage("--trace must be 0 or 1");
      }
      cfg.trace = v == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      cfg.trace_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  perfbench::Report report;
  report.Context("workload", cfg.workload);
  report.Context("seed", std::to_string(cfg.seed));
  report.Context("seconds", std::to_string(static_cast<int>(cfg.seconds)));
  report.Context("trace", cfg.trace ? "1" : "0");
  report.Context("host_cores",
                 std::to_string(std::thread::hardware_concurrency()));
  report.Context("build_type", PERFBENCH_BUILD_TYPE);

  if (cfg.workload == "serve-mix") {
    perfbench::RunServeMix(cfg, &report);
  } else if (cfg.workload == "tpch-exec") {
    perfbench::RunTpchExec(cfg, &report);
  } else if (cfg.workload == "paper-fig4") {
    perfbench::RunPaperFig4(cfg, &report);
  } else {
    return Usage("unknown --workload");
  }
  if (report.attempted == 0) report.CheckFailed("no operation was attempted");
  report.Print();
  return 0;
}
