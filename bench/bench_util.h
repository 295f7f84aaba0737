#ifndef OMNIMATCH_BENCH_BENCH_UTIL_H_
#define OMNIMATCH_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace omnimatch {
namespace bench {

/// One timed measurement destined for BENCH_auxgen*.json.
struct KernelSample {
  std::string name;     // workload + size, e.g. "auxgen/users=20000"
  std::string variant;  // the timed implementation, e.g. "csr"
  int threads = 1;      // pool size the sample ran with
  double ns = 0.0;      // best-of-reps time per call
  /// Time of the baseline the sample is compared against (the retired scan
  /// path for the Algorithm-1 sweep); 0 when there is none.
  double seed_ns = 0.0;
};

/// Renders the samples as a machine-readable JSON document:
/// {"schema": ..., "records": [{name, variant, threads, ns, seed_ns,
///  speedup_vs_seed}, ...]}.
inline std::string RenderBenchJson(const std::vector<KernelSample>& samples) {
  std::string out = "{\n  \"schema\": \"omnimatch-bench-v1\",\n";
  out += "  \"unit\": \"ns_per_call\",\n  \"records\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const KernelSample& s = samples[i];
    out += StrFormat(
        "    {\"name\": \"%s\", \"variant\": \"%s\", \"threads\": %d, "
        "\"ns\": %.1f",
        s.name.c_str(), s.variant.c_str(), s.threads, s.ns);
    if (s.seed_ns > 0.0) {
      out += StrFormat(", \"seed_ns\": %.1f, \"speedup_vs_seed\": %.2f",
                       s.seed_ns, s.seed_ns / s.ns);
    }
    out += i + 1 < samples.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// Writes the JSON document to `path`; returns false on I/O failure.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<KernelSample>& samples) {
  std::ofstream out(path);
  if (!out) return false;
  out << RenderBenchJson(samples);
  return static_cast<bool>(out);
}

/// Prints one paper-style table block: rows are (scenario, RMSE/MAE),
/// columns are methods, with the last column showing the improvement of
/// "OmniMatch" over the best baseline (the paper's Δ% column).
inline void PrintScenarioTable(
    const std::vector<eval::ScenarioResult>& results) {
  if (results.empty()) return;
  eval::AsciiTable table;
  std::vector<std::string> header = {"Scenario", "Metric"};
  for (const auto& m : results[0].methods) {
    header.push_back(m.name == "OmniMatch" ? "Ours" : m.name);
  }
  header.push_back("Δ%");
  table.SetHeader(header);

  for (const auto& scenario : results) {
    for (int metric = 0; metric < 2; ++metric) {
      std::vector<std::string> row = {scenario.scenario,
                                      metric == 0 ? "RMSE" : "MAE"};
      double ours = 0.0, best_baseline = 1e30;
      for (const auto& m : scenario.methods) {
        double v = metric == 0 ? m.test.rmse : m.test.mae;
        row.push_back(eval::FormatMetric(v));
        if (m.name == "OmniMatch") {
          ours = v;
        } else {
          best_baseline = std::min(best_baseline, v);
        }
      }
      double delta = (best_baseline - ours) / best_baseline * 100.0;
      row.push_back(ours > 0.0 ? eval::StrFormatDelta(delta) : "-");
      table.AddRow(row);
    }
  }
  std::printf("%s", table.Render().c_str());
}

}  // namespace bench
}  // namespace omnimatch

#endif  // OMNIMATCH_BENCH_BENCH_UTIL_H_
