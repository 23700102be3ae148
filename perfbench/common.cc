#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/json_writer.h"

namespace perfbench {

void Report::CheckFailed(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Report::Print() const {
  volcano::JsonWriter ctx;
  ctx.BeginObject();
  for (const auto& [k, v] : context_) ctx.Key(k).Value(v);
  ctx.EndObject();
  std::printf("# context %s\n", ctx.str().c_str());
  for (const Metric& m : metrics_) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    // A NaN or infinity is not JSON; report it as -1 so the run is visibly
    // wrong instead of unparsable.
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    out += "\"";
    volcano::JsonWriter::Escape(m.name, &out);
    out += "\": {\"value\": ";
    out += num;
    out += ", \"unit\": \"";
    volcano::JsonWriter::Escape(m.unit, &out);
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double PeakRssMiB() {
  // VmHWM belongs to this program image. getrusage's ru_maxrss would also
  // count the launcher's pages, because Linux keeps it across execve.
  long kib = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib < 0) {
    std::fprintf(stderr, "error: /proc/self/status reports no VmHWM\n");
    std::exit(1);
  }
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
