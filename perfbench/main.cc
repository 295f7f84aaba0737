// End-to-end benchmark driver binary. One run = one workload in its own
// process:
//
//   perfbench --workload=train|serve_warm|serve_cold --seed=N --seconds=S
//             --trace=0|1 --work_dir=DIR [--trace_out=FILE]
//
// --trace=0 prints the end-to-end metrics; --trace=1 turns on obs metrics
// and tracing, adds the per-layer probes, prints the per-layer metrics and
// writes a Chrome trace to --trace_out. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is non-zero when any correctness check failed. run.py builds this
// binary and is the intended entry point (see README.md).
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "data/synthetic.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using omnimatch::StrFormat;
using omnimatch::data::SyntheticConfig;

/// The world of the serve workloads: the Amazon-like preset with more users
/// and lower per-domain participation, so a few hundred users are active in
/// the source domain only (the 550-user preset has 67).
SyntheticConfig ServeWorld() {
  SyntheticConfig world = SyntheticConfig::AmazonLike();
  world.num_users = 1300;
  world.participation = 0.6;
  return world;
}

bool MakeSpec(const std::string& name, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "train") {
    // Table 2's OmniMatch slice: most of the run trains and evaluates.
    spec->world = SyntheticConfig::AmazonLike();
    spec->eval_share = 0.3;
    spec->open_share = 0.15;
    spec->capacity_share = 0.15;
    spec->open_qps = 2000.0;
    spec->latency_limit_ms = 50.0;
    spec->swap_interval_s = 0.6;
    spec->trailing_swaps = 5;
    return true;
  }
  if (name == "serve_warm") {
    // Users with frozen documents, all cached: the item TextCNN, the
    // rating head and batching do the work.
    spec->world = ServeWorld();
    spec->eval_share = 0.1;
    spec->open_share = 0.3;
    spec->capacity_share = 0.3;
    spec->open_qps = 3000.0;
    spec->latency_limit_ms = 50.0;
    spec->swap_interval_s = 0.6;
    spec->trailing_swaps = 5;
    return true;
  }
  if (name == "serve_cold") {
    // Source-only users, a cache a tenth of their number and swaps while
    // the measured traffic runs: every request goes through admission.
    spec->world = ServeWorld();
    spec->eval_share = 0.1;
    spec->open_share = 0.4;
    spec->capacity_share = 0.25;
    spec->cold_users = true;
    spec->cache_share = 0.1;
    spec->open_qps = 1000.0;
    spec->latency_limit_ms = 100.0;
    spec->swaps_during_measurement = true;
    spec->swap_interval_s = 1.0;
    return true;
  }
  return false;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(),
                     metrics[i].value, metrics[i].unit.c_str());
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t process_start_ns = NowNs();
  omnimatch::FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 2;
  const std::string workload = flags.GetString("workload", "");
  const int seed = flags.GetInt("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const int trace = flags.GetInt("trace", 0);
  const std::string work_dir = flags.GetString("work_dir", "");
  const std::string trace_out = flags.GetString("trace_out", "");
  WorkloadSpec spec;
  if (!MakeSpec(workload, &spec) || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1) || work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=train|serve_warm|serve_cold "
                 "--seed=N --seconds=S --trace=0|1 --work_dir=DIR "
                 "[--trace_out=FILE]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);

  ThreadBudget budget;
  budget.nproc = AvailableCpus();
  std::printf(
      "config: workload %s seed %d seconds %g trace %d nproc %d pool %d "
      "executors %d generator %d swapper %d isa %s\n",
      workload.c_str(), seed, seconds, trace, budget.nproc, budget.pool,
      budget.executors, budget.generator, budget.swapper,
      omnimatch::IsaName(omnimatch::ActiveIsa()));
  if (budget.ServingThreads() > budget.nproc) {
    std::fprintf(stderr,
                 "perfbench: thread budget %d (generator + executors + "
                 "swapper + pool workers) exceeds nproc %d\n",
                 budget.ServingThreads(), budget.nproc);
    return 3;
  }

  SpanLog log;
  if (trace == 1) log.Enable();
  RunResult result =
      RunWorkload(spec, budget, static_cast<uint64_t>(seed), seconds,
                  trace == 1, work_dir, process_start_ns, &log);
  const std::vector<Metric>& metrics =
      trace == 1 ? result.per_layer : result.end_to_end;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      result.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  if (trace == 1 && !trace_out.empty() && !log.WriteChromeTrace(trace_out)) {
    result.failures.push_back("cannot write " + trace_out);
  }
  if (trace == 1) {
    // The traced run's own headline numbers, for obs.trace_overhead.
    std::printf("end_to_end: %s\n", MetricsJson(result.end_to_end).c_str());
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = result.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, result.attempted)),
              static_cast<long long>(result.failed),
              MetricsJson(correct ? metrics : std::vector<Metric>{}).c_str());
  return correct ? 0 : 1;
}
