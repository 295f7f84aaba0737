#include "common/threadpool.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace omnimatch {

namespace {

// Pool instrumentation. Counters are plain relaxed increments and always
// live; the busy-time clock reads only happen while obs::MetricsEnabled().
obs::Counter* PoolJobs() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("threadpool.jobs");
  return c;
}
obs::Counter* PoolInlineRuns() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("threadpool.inline_runs");
  return c;
}
obs::Counter* PoolChunks() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("threadpool.chunks");
  return c;
}
obs::Counter* PoolBusyNs() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("threadpool.worker_busy_ns");
  return c;
}
obs::Gauge* PoolThreadsGauge() {
  static obs::Gauge* const g =
      obs::MetricsRegistry::Global().GetGauge("threadpool.threads");
  return g;
}
// Chunk backlog per submitted job — the pool's "queue depth" (one flat job
// at a time; depth is how many chunks wait to be claimed).
obs::Histogram* PoolJobChunks() {
  static obs::Histogram* const h =
      obs::MetricsRegistry::Global().GetHistogram(
          "threadpool.job_chunks", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

int64_t PoolNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// True while the current thread is executing a pool chunk; nested
// ParallelFor calls from kernels (e.g. a GEMM inside the batched text conv)
// run inline instead of deadlocking on the single shared job slot.
thread_local bool t_inside_worker = false;

// How many chunks to cut per participating thread. More than one gives
// dynamic load balance when chunks have uneven cost (e.g. ragged documents)
// at the price of slightly more atomic traffic.
constexpr int64_t kChunksPerThread = 4;

int ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(0);  // leaked: outlives all users
  return *pool;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreads(num_threads)) {}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::Resize(int num_threads) {
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  int resolved = ResolveThreads(num_threads);
  PoolThreadsGauge()->Set(resolved);
  if (resolved == num_threads_) return;
  StopWorkers();
  num_threads_ = resolved;
}

void ThreadPool::StartWorkers() {
  // Caller holds submit_mutex_. The submitting thread participates in every
  // job, so num_threads_ - 1 background workers suffice.
  shutdown_ = false;
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  started_ = true;
}

void ThreadPool::StopWorkers() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    shutdown_ = true;
    ++job_generation_;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  started_ = false;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(job_mutex_);
      job_cv_.wait(lock, [&] {
        return shutdown_ || job_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
      job = current_job_;
    }
    if (!job) continue;
    t_inside_worker = true;
    RunChunks(job.get());
    t_inside_worker = false;
  }
}

void ThreadPool::RunChunks(Job* job) {
  const bool timed = obs::MetricsEnabled();
  const int64_t t0 = timed ? PoolNowNs() : 0;
  int64_t executed = 0;
  while (true) {
    int64_t b = job->next.fetch_add(job->chunk, std::memory_order_relaxed);
    if (b >= job->end) break;
    int64_t e = std::min(job->end, b + job->chunk);
    (*job->fn)(b, e);
    ++executed;
    if (job->chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(job_mutex_);
      done_cv_.notify_all();
    }
  }
  if (executed > 0) {
    PoolChunks()->Add(executed);
    if (timed) PoolBusyNs()->Add(PoolNowNs() - t0);
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             int64_t item_work,
                             const std::function<void(int64_t, int64_t)>& fn) {
  int64_t range = end - begin;
  if (range <= 0) return;
  if (grain < 1) grain = 1;
  // range * item_work < kSerialWorkLimit, without the product's overflow.
  const bool small_work = item_work <= (kSerialWorkLimit - 1) / range;
  if (num_threads_ <= 1 || range <= grain || small_work || t_inside_worker) {
    PoolInlineRuns()->Increment();
    fn(begin, end);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  if (!started_) StartWorkers();
  PoolJobs()->Increment();

  int64_t target_chunks =
      std::min<int64_t>((range + grain - 1) / grain,
                        static_cast<int64_t>(num_threads_) * kChunksPerThread);
  // grain is a hard minimum chunk size (only the final chunk may be
  // smaller), so callers can rely on it to bound per-chunk overhead.
  int64_t chunk = std::max(grain, (range + target_chunks - 1) / target_chunks);

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->end = end;
  job->chunk = chunk;
  int64_t num_chunks = (range + chunk - 1) / chunk;
  job->next.store(begin, std::memory_order_relaxed);
  job->chunks_left.store(num_chunks, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    PoolJobChunks()->Observe(static_cast<double>(num_chunks));
  }
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    current_job_ = job;
    ++job_generation_;
  }
  job_cv_.notify_all();

  // The submitting thread works too; with slow-to-wake workers it simply
  // runs every chunk itself.
  t_inside_worker = true;
  RunChunks(job.get());
  t_inside_worker = false;

  {
    std::unique_lock<std::mutex> lock(job_mutex_);
    done_cv_.wait(lock, [&] {
      return job->chunks_left.load(std::memory_order_acquire) == 0;
    });
    current_job_.reset();
  }
}

void SetNumThreads(int num_threads) {
  ThreadPool::Global().Resize(num_threads);
}

int GetNumThreads() { return ThreadPool::Global().num_threads(); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain, int64_t item_work,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, item_work, fn);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

}  // namespace omnimatch
