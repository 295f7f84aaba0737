#ifndef OMNIMATCH_SERVE_SERVER_H_
#define OMNIMATCH_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/scorer.h"
#include "serve/snapshot.h"
#include "serve/types.h"

namespace omnimatch {
namespace serve {

/// The online inference runtime: concurrent request threads submit
/// (user, item) pairs; a pool of executor threads coalesces them into
/// GEMM-friendly micro-batches and drives the Scorer.
///
/// Batching semantics (see DESIGN.md "Serving"): an arriving request is
/// appended to the queue, and dispatch is work-conserving. An executor
/// that finds the queue non-empty takes up to max_batch requests at once
/// and never waits for more, so a request reaching an idle server is
/// scored at once; requests arriving while every executor is busy pile up
/// and leave together as one batch.
///
/// Results are bit-identical to unbatched single-threaded scoring: every
/// kernel on the scoring path is row-independent and the eval forward
/// writes no shared state, so neither batch composition nor the number of
/// executor threads changes a result (this is also what makes the
/// user-embedding cache sound).
///
/// Fault tolerance (DESIGN.md "Serving failure model"):
///  * Bounded admission — the queue is capped at max_queue; requests
///    arriving at a full queue are rejected immediately with kOverloaded
///    instead of growing latency without bound.
///  * Deadlines — a request older than deadline_ms at dispatch time is
///    answered kDeadlineExceeded without scoring; the executor never burns
///    model time on an answer the caller has given up on.
///  * Graceful degradation — the scoring tier for each batch is chosen
///    from the queue fill level at dispatch: below degrade_cached_fill the
///    full path runs; above it admission work is shed (cache hits only,
///    kDegradedCached / kDegradedFallback); above degrade_fallback_fill the
///    model is bypassed entirely (global-mean, kDegradedFallback). Every
///    response states its tier, so callers never mistake a degraded answer
///    for a full-fidelity one.
///  * Hot swap — SwapSnapshot atomically replaces the model between
///    batches; in-flight batches finish on the snapshot they started with,
///    and each response carries the snapshot version that produced it.
///  * Shutdown — requests already queued when Shutdown() begins are drained
///    and scored; requests submitted after it starts are rejected with
///    kShuttingDown (never silently dropped).
///
/// Fault-injection points consulted here (see common/fault.h):
/// "queue_admit" (reject an admission as overloaded), "executor_score"
/// (force a batch onto a degraded tier: mag>=2 global-mean, else
/// cached-only), "serve_slow" (sleep mag milliseconds before scoring a
/// batch — a deliberately slow request for deadline/overload tests).
///
/// Thread-safety: Score/ScoreAsync/SwapSnapshot/stats may be called from
/// any number of threads.
class InferenceServer {
 public:
  struct Options {
    /// Max requests per dispatched batch.
    int max_batch = 32;
    /// User-embedding cache capacity (entries).
    size_t cache_capacity = 4096;
    /// Executor threads draining the queue concurrently. Results are
    /// bit-identical for any value; more threads buy throughput when
    /// batches are model-bound.
    int executors = 1;
    /// Queue capacity; admissions beyond it are rejected kOverloaded.
    /// 0 = unbounded (also disables fill-based degradation).
    size_t max_queue = 1024;
    /// Per-request deadline, measured from enqueue; a request older than
    /// this at dispatch is answered kDeadlineExceeded unscored. 0 = none.
    int64_t deadline_ms = 0;
    /// Queue-fill fractions (of max_queue) at which dispatch degrades to
    /// cached-only and to global-mean scoring. Ignored when max_queue = 0.
    double degrade_cached_fill = 0.60;
    double degrade_fallback_fill = 0.85;
  };

  /// Monotonic counters since construction. `served_*` partition completed
  /// (scored or fallback-answered) requests by tier; `rejected_*` and
  /// `deadline_exceeded` count requests answered without scoring.
  struct Stats {
    int64_t requests_served = 0;  // completed with a score (any tier)
    int64_t batches_dispatched = 0;
    int64_t served_full = 0;
    int64_t served_degraded_cached = 0;
    int64_t served_degraded_fallback = 0;
    int64_t deadline_exceeded = 0;
    int64_t rejected_overloaded = 0;
    int64_t rejected_shutdown = 0;
    int64_t snapshot_swaps = 0;
  };

  InferenceServer(std::shared_ptr<const ModelSnapshot> snapshot,
                  const Options& options);
  /// Drains the queue and joins the executors.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Blocking request; requires the response to carry a score (i.e. the
  /// server is not overloaded past the fallback tier into rejection).
  /// Prefer ScoreAsync when statuses matter.
  float Score(int user, int item);

  /// Non-blocking request; the future resolves when the request's batch
  /// completes (or immediately on rejection). Always yields a ScoreResult —
  /// never throws, never drops: after Shutdown() begins the status is
  /// kShuttingDown, at a full queue kOverloaded.
  std::future<ScoreResult> ScoreAsync(int user, int item);

  /// Atomically swaps the model snapshot for batches dispatched from now
  /// on; in-flight batches complete on the snapshot they captured. Safe
  /// under full traffic. Callers wanting validation + rollback should go
  /// through SnapshotManager instead of calling this directly.
  void SwapSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Stops accepting requests (subsequent submissions get kShuttingDown),
  /// scores everything already queued, and joins the executors. Idempotent
  /// (the destructor runs it too) but not safe to call from two threads
  /// concurrently.
  void Shutdown();

  const Scorer& scorer() const { return *scorer_; }

  Stats stats() const;

 private:
  struct Pending {
    int user = -1;
    int item = -1;
    std::promise<ScoreResult> result;
    int64_t enqueue_ns = 0;
    int64_t deadline_ns = 0;  // 0 = none
  };

  void ExecutorLoop();
  /// Scores one batch, popped from the queue at `dispatch_ns`, at the given
  /// tier against `snap` and fulfills its promises.
  void RunBatch(const std::shared_ptr<const ModelSnapshot>& snap,
                std::vector<Pending>* batch, ScoreMode mode,
                int64_t dispatch_ns);
  /// Tier for a batch dispatched while the queue held `queued` requests.
  ScoreMode PickMode(size_t queued) const;

  const Options options_;
  std::unique_ptr<Scorer> scorer_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  Stats stats_;

  std::vector<std::thread> executors_;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_SERVER_H_
