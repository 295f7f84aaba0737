#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace omnimatch {
namespace serve {

namespace {

/// Request timestamps share the trace clock, so a serve.queue_wait span
/// lines up with every other span of an exported trace.
int64_t NowNs() { return obs::internal::TraceNowNs(); }

obs::Counter* RequestCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  return c;
}
obs::Counter* BatchCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.batches");
  return c;
}
obs::Counter* DeadlineCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.deadline_exceeded");
  return c;
}
obs::Counter* OverloadedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.rejected.overloaded");
  return c;
}
obs::Counter* ShutdownCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.rejected.shutdown");
  return c;
}
obs::Counter* SwapCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.snapshot_swaps");
  return c;
}
obs::Histogram* QueueWaitHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.queue_wait_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* BatchSizeHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.batch_size",
      std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}
/// End-to-end request latency, one histogram per degradation tier so an
/// overloaded server's cheap fallback answers don't mask the full tier's
/// tail (and vice versa).
obs::Histogram* RequestHistFull() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request_ns.full", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* RequestHistCached() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request_ns.degraded_cached", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* RequestHistFallback() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request_ns.degraded_fallback", obs::Histogram::LatencyBoundsNs());
  return h;
}

obs::Histogram* TierHist(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return RequestHistFull();
    case RequestStatus::kDegradedCached:
      return RequestHistCached();
    default:
      return RequestHistFallback();
  }
}

}  // namespace

InferenceServer::InferenceServer(
    std::shared_ptr<const ModelSnapshot> snapshot, const Options& options)
    : options_(options),
      scorer_(std::make_unique<Scorer>(std::move(snapshot),
                                       options.cache_capacity)) {
  OM_CHECK_GE(options_.max_batch, 1);
  OM_CHECK_GE(options_.executors, 1);
  OM_CHECK_GE(options_.deadline_ms, 0);
  OM_CHECK_GT(options_.degrade_cached_fill, 0.0);
  OM_CHECK_GE(options_.degrade_fallback_fill, options_.degrade_cached_fill);
  executors_.reserve(static_cast<size_t>(options_.executors));
  for (int i = 0; i < options_.executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

std::future<ScoreResult> InferenceServer::ScoreAsync(int user, int item) {
  Pending p;
  p.user = user;
  p.item = item;
  p.enqueue_ns = NowNs();
  if (options_.deadline_ms > 0) {
    p.deadline_ns = p.enqueue_ns + options_.deadline_ms * 1000000;
  }
  std::future<ScoreResult> result = p.result.get_future();

  // Rejections resolve the future immediately — a caller that submitted is
  // ALWAYS answered, the answer just says why no score is coming.
  RequestStatus reject = RequestStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject = RequestStatus::kShuttingDown;
      ++stats_.rejected_shutdown;
    } else if ((options_.max_queue > 0 &&
                queue_.size() >= options_.max_queue) ||
               FaultInjector::Global().ShouldFire("queue_admit")) {
      reject = RequestStatus::kOverloaded;
      ++stats_.rejected_overloaded;
    } else {
      queue_.push_back(std::move(p));
    }
  }
  if (reject != RequestStatus::kOk) {
    if (obs::MetricsEnabled()) {
      (reject == RequestStatus::kShuttingDown ? ShutdownCounter()
                                              : OverloadedCounter())
          ->Increment();
    }
    ScoreResult r;
    r.status = reject;
    p.result.set_value(r);
    return result;
  }
  cv_.notify_all();
  return result;
}

float InferenceServer::Score(int user, int item) {
  ScoreResult r = ScoreAsync(user, item).get();
  OM_CHECK(r.has_score()) << "Score() request ended " <<
      RequestStatusName(r.status) << "; use ScoreAsync to handle rejection";
  return r.score;
}

void InferenceServer::SwapSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  scorer_->SetSnapshot(std::move(snapshot));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.snapshot_swaps;
  }
  if (obs::MetricsEnabled()) SwapCounter()->Increment();
}

void InferenceServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Never joined under the lock: executors need it to drain and exit.
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
}

ScoreMode InferenceServer::PickMode(size_t queued) const {
  if (options_.max_queue > 0) {
    const double fill = static_cast<double>(queued) /
                        static_cast<double>(options_.max_queue);
    if (fill >= options_.degrade_fallback_fill) return ScoreMode::kGlobalMean;
    if (fill >= options_.degrade_cached_fill) return ScoreMode::kCachedOnly;
  }
  return ScoreMode::kFull;
}

void InferenceServer::ExecutorLoop() {
  std::vector<Pending> batch;
  std::vector<Pending> expired;
  while (true) {
    ScoreMode mode = ScoreMode::kFull;
    int64_t dispatch_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty() && stopping_) return;
      // Work-conserving: take what is queued now, up to max_batch, and never
      // wait for more. Batches still form while every executor is busy,
      // because arrivals pile up in the queue meanwhile.
      // Tier from the PRE-POP fill level: the pressure that queued these
      // requests is what degradation should react to.
      mode = PickMode(queue_.size());
      dispatch_ns = NowNs();
      batch.clear();
      expired.clear();
      while (static_cast<int>(batch.size()) < options_.max_batch &&
             !queue_.empty()) {
        Pending p = std::move(queue_.front());
        queue_.pop_front();
        // A request already past its deadline is answered here, unscored:
        // the caller has given up, model time on it is pure waste.
        if (p.deadline_ns > 0 && dispatch_ns > p.deadline_ns) {
          ++stats_.deadline_exceeded;
          expired.push_back(std::move(p));
          continue;
        }
        batch.push_back(std::move(p));
      }
    }
    for (Pending& p : expired) {
      if (obs::MetricsEnabled()) DeadlineCounter()->Increment();
      ScoreResult r;
      r.status = RequestStatus::kDeadlineExceeded;
      p.result.set_value(r);
    }
    if (batch.empty()) continue;

    // Injected faults: a deliberately slow batch, or a forced degraded
    // tier — both exercised by tests and the bench's fault phases.
    FaultHit hit;
    if (FaultInjector::Global().ShouldFire("serve_slow", &hit)) {
      const int64_t ms =
          hit.magnitude > 0 ? static_cast<int64_t>(hit.magnitude) : 10;
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    if (FaultInjector::Global().ShouldFire("executor_score", &hit)) {
      mode = hit.magnitude >= 2.0 ? ScoreMode::kGlobalMean
                                  : ScoreMode::kCachedOnly;
    }

    // Pin the snapshot for the whole batch: a swap landing mid-batch takes
    // effect from the NEXT dispatch, and every response reports the version
    // that actually produced it.
    RunBatch(scorer_->CurrentSnapshot(), &batch, mode, dispatch_ns);
  }
}

void InferenceServer::RunBatch(
    const std::shared_ptr<const ModelSnapshot>& snap,
    std::vector<Pending>* batch, ScoreMode mode, int64_t dispatch_ns) {
  const bool metrics = obs::MetricsEnabled();
  if (metrics) {
    BatchCounter()->Increment();
    BatchSizeHist()->Observe(static_cast<double>(batch->size()));
    for (const Pending& p : *batch) {
      QueueWaitHist()->Observe(
          static_cast<double>(dispatch_ns - p.enqueue_ns));
    }
  }
  if (obs::TracingEnabled()) {
    // The batch's queue wait: from its oldest request's arrival (the queue
    // is FIFO, so the front) to dispatch.
    obs::internal::RecordSpan("serve.queue_wait", batch->front().enqueue_ns,
                              dispatch_ns);
  }

  std::vector<ScoreRequest> requests(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    requests[i].user = (*batch)[i].user;
    requests[i].item = (*batch)[i].item;
  }
  std::vector<ScoredValue> scored =
      scorer_->ScoreBatchWith(snap, requests, mode);
  OM_CHECK_EQ(scored.size(), batch->size());

  const int64_t end_ns = NowNs();
  std::vector<ScoreResult> results(batch->size());
  Stats delta;
  for (size_t i = 0; i < batch->size(); ++i) {
    ScoreResult& r = results[i];
    r.score = scored[i].score;
    r.status = scored[i].status;
    r.snapshot_version = snap->version();
    switch (r.status) {
      case RequestStatus::kOk:
        ++delta.served_full;
        break;
      case RequestStatus::kDegradedCached:
        ++delta.served_degraded_cached;
        break;
      default:
        ++delta.served_degraded_fallback;
        break;
    }
    if (metrics) {
      RequestCounter()->Increment();
      TierHist(r.status)->Observe(
          static_cast<double>(end_ns - (*batch)[i].enqueue_ns));
    }
  }
  // Stats land BEFORE the promises: a caller that has observed its response
  // never reads a stats() snapshot that hasn't accounted for it yet.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.requests_served += static_cast<int64_t>(batch->size());
    ++stats_.batches_dispatched;
    stats_.served_full += delta.served_full;
    stats_.served_degraded_cached += delta.served_degraded_cached;
    stats_.served_degraded_fallback += delta.served_degraded_fallback;
  }
  for (size_t i = 0; i < batch->size(); ++i) {
    (*batch)[i].result.set_value(results[i]);
  }
}

InferenceServer::Stats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t InferenceServer::requests_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.requests_served;
}

int64_t InferenceServer::batches_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.batches_dispatched;
}

}  // namespace serve
}  // namespace omnimatch
