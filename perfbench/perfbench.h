// Shared declarations of the end-to-end benchmark (see README.md in this
// directory for the workloads, the metrics and what each layer metric is
// expected to move).
#ifndef OMNIMATCH_PERFBENCH_PERFBENCH_H_
#define OMNIMATCH_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/synthetic.h"

namespace perfbench {

/// Steady-clock nanoseconds, on the same epoch as obs trace spans.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The fixed shape of one workload. Every workload runs the same pipeline —
/// set-up, training, evaluation, then serving the trained model — and the
/// spec decides where its time goes (see README.md "Workloads").
struct WorkloadSpec {
  std::string name;
  omnimatch::data::SyntheticConfig world;
  /// Measured rounds; each trains one epoch, evaluates and serves. The
  /// epoch count is fixed, so test_rmse is a deterministic function of the
  /// seed whatever --seconds is.
  int rounds = 4;
  /// Shares of --seconds given to the evaluation loop, the open-loop phase
  /// and the capacity window, split evenly over the rounds.
  double eval_share = 0.1;
  double open_share = 0.3;
  double capacity_share = 0.3;
  /// Serve users the snapshot has no documents for (source-only users)
  /// instead of users with frozen documents.
  bool cold_users = false;
  /// Open-loop arrival rate and the latency limit ok_share is judged by.
  double open_qps = 1000.0;
  double latency_limit_ms = 20.0;
  /// User-embedding cache capacity as a share of the traffic's user set
  /// (0 = the server default, large enough for every user).
  double cache_share = 0.0;
  /// Swaps run while the measured phases run (serve_cold) or in a trailing
  /// open-loop phase whose latencies are not reported (the others, so the
  /// measured cache stays warm).
  bool swaps_during_measurement = false;
  double swap_interval_s = 1.5;
  int trailing_swaps = 2;
};

/// Thread counts of a run. Every count is fixed; none is derived from the
/// machine, so two machines with the same nproc run the same schedule.
struct ThreadBudget {
  int nproc = 0;
  int pool = 1;       // kernel pool size (caller + pool - 1 workers)
  int executors = 2;  // InferenceServer executor threads
  int generator = 1;  // the load generator (the main thread)
  int swapper = 1;    // the snapshot swapper thread
  /// Threads that can run at once while serving.
  int ServingThreads() const {
    return generator + executors + swapper + (pool - 1);
  }
};

/// One emitted metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured and checked.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Failed correctness checks, one line each; empty when all held.
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// A finished span recorded by the benchmark itself. `id` ties the spans of
/// one serve request together (-1 = none).
struct BenchSpan {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t id;
};

/// In-memory span log of the traced run. Spans are kept until the run ends
/// and then written, merged with the program's own obs spans, as one Chrome
/// trace.
class SpanLog {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t id = -1);
  /// Writes the Chrome trace_event JSON; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

/// Times a call into one layer and, when the log is enabled, records it as a
/// span. Returns the elapsed seconds of the call.
template <typename Fn>
double TimedCall(SpanLog* log, const char* name, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  if (log->enabled()) log->Add(name, start, end);
  return static_cast<double>(end - start) * 1e-9;
}

/// Runs one workload. `process_start_ns` is taken first thing in main();
/// the first set-up is measured from it.
RunResult RunWorkload(const WorkloadSpec& spec, const ThreadBudget& budget,
                      uint64_t seed, double seconds, bool traced,
                      const std::string& work_dir, int64_t process_start_ns,
                      SpanLog* log);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // OMNIMATCH_PERFBENCH_PERFBENCH_H_
