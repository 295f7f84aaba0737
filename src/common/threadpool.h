#ifndef OMNIMATCH_COMMON_THREADPOOL_H_
#define OMNIMATCH_COMMON_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace omnimatch {

/// Estimated scalar operations below which a ParallelFor call runs inline:
/// a pool dispatch costs a few microseconds of wake-up and join, while a
/// kernel retires roughly one scalar operation per nanosecond serially, so
/// below this the dispatch costs more than the parallelism returns.
constexpr int64_t kSerialWorkLimit = 1 << 16;

/// Shared compute thread pool behind every parallel kernel in the library.
///
/// Design goals, in priority order:
///  1. **Bit-determinism for any thread count.** ParallelFor splits
///     [begin, end) into disjoint contiguous chunks and each chunk is run by
///     exactly one thread. Kernels are written so that every output element
///     is produced entirely inside the chunk that owns it, with a fixed
///     intra-chunk iteration order; reductions combine per-chunk partials in
///     index order on the calling thread. Under that contract the result is
///     bit-identical whether the pool has 1 thread or 64 — which chunk runs
///     on which thread (decided dynamically, for load balance) cannot
///     matter.
///  2. **Zero overhead when parallelism cannot help.** Ranges smaller than
///     `grain`, calls whose estimated work is below kSerialWorkLimit, a
///     single-thread pool, and calls issued from inside a worker (nested
///     parallelism) all run inline on the calling thread without touching
///     a lock. By (1) an inline run is bit-identical to a dispatched one.
///  3. **No work stealing, no task graph.** One flat job at a time; chunks
///     are claimed with a single atomic fetch-add. This keeps the pool
///     auditable and the determinism argument short.
///
/// The pool is lazily started on first use. Worker threads sleep on a
/// condition variable between jobs.
class ThreadPool {
 public:
  /// The process-wide pool used by all nn/core kernels.
  static ThreadPool& Global();

  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resizes the pool. n <= 0 selects std::thread::hardware_concurrency().
  /// Joins existing workers first; safe to call between (not during) jobs.
  void Resize(int num_threads);

  /// Number of threads that participate in a job (workers + caller).
  int num_threads() const { return num_threads_; }

  /// Runs fn over disjoint contiguous sub-ranges covering [begin, end).
  /// `grain` is the minimum chunk size. `item_work` estimates the scalar
  /// operations one index costs. The calling thread participates. Runs
  /// inline when the range fits in one grain, the whole call's work
  /// ((end - begin) * item_work) is below kSerialWorkLimit, the pool has
  /// one thread, or the caller is itself a pool worker.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   int64_t item_work,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// ParallelFor for loops whose per-index work is large or unknown: the
  /// work rule never makes such a call inline.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn) {
    ParallelFor(begin, end, grain, kSerialWorkLimit, fn);
  }

 private:
  /// One ParallelFor invocation. Immutable bounds plus the two atomics that
  /// drive chunk claiming; stale workers from a finished job only ever see
  /// their own (exhausted) Job object, never the next one's counters.
  struct Job {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t end = 0;
    int64_t chunk = 1;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> chunks_left{0};
  };

  void WorkerLoop();
  void RunChunks(Job* job);
  void StartWorkers();
  void StopWorkers();

  int num_threads_ = 1;
  bool started_ = false;
  std::vector<std::thread> workers_;

  // Serializes jobs submitted from different external threads.
  std::mutex submit_mutex_;

  std::mutex job_mutex_;
  std::condition_variable job_cv_;   // wakes workers
  std::condition_variable done_cv_;  // wakes the submitting thread
  std::shared_ptr<Job> current_job_;
  uint64_t job_generation_ = 0;
  bool shutdown_ = false;
};

/// Sets the global pool size. n <= 0 selects the hardware thread count.
/// Typically driven by the `--threads` flag or OmniMatchConfig::num_threads.
void SetNumThreads(int num_threads);

/// Current global pool size.
int GetNumThreads();

/// ParallelFor on the global pool: the kernels' form, with the work rule.
void ParallelFor(int64_t begin, int64_t end, int64_t grain, int64_t item_work,
                 const std::function<void(int64_t, int64_t)>& fn);

/// ParallelFor on the global pool, for loops whose per-index work is large
/// or unknown.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace omnimatch

#endif  // OMNIMATCH_COMMON_THREADPOOL_H_
