#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, id});
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  using omnimatch::StrFormat;
  // Benchmark spans go on pid 1, the program's own obs spans on pid 2.
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto event = [&](const char* name, const char* cat, int64_t start_ns,
                   int64_t end_ns, int pid, int tid, int64_t id) {
    out += first ? "" : ",\n";
    first = false;
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%d,\"tid\":%d",
        name, cat, static_cast<double>(start_ns) / 1e3,
        static_cast<double>(end_ns - start_ns) / 1e3, pid, tid);
    if (id >= 0) {
      out += StrFormat(",\"args\":{\"id\":%lld}",
                       static_cast<long long>(id));
    }
    out += "}";
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const BenchSpan& s : spans_) {
      event(s.name, "bench", s.start_ns, s.end_ns, 1, 0, s.id);
    }
  }
  for (const omnimatch::obs::ExportedSpan& s : omnimatch::obs::ExportSpans()) {
    event(s.name, "program", s.start_ns, s.end_ns, 2, s.tid, -1);
  }
  out += "\n]}\n";
  std::ofstream file(path);
  return static_cast<bool>(file << out);
}

}  // namespace perfbench
