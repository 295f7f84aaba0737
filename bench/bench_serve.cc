// Online-serving load harness for the inference runtime (src/serve/):
// trains a small model on a synthetic world, freezes it into a
// ModelSnapshot, then drives the InferenceServer three ways and reports
// end-to-end request latency percentiles plus throughput:
//
//   * closed loop — N client threads each submit their next request the
//     moment the previous one returns; measures peak sustainable QPS and
//     the latency the coalescing adds under saturation.
//   * open loop — one dispatcher paces ScoreAsync calls at a target
//     arrival rate; queue wait is charged to the request, so coordinated
//     omission does not hide queueing delays.
//   * overload — bursts far beyond the queue bound, with every serve
//     fault-injection point armed (queue_admit, executor_score,
//     serve_slow, snapshot_load) and three mid-traffic snapshot swap
//     attempts: a corrupt checkpoint (rolled back), an injected
//     snapshot_load fault (rolled back), and a valid further-trained
//     checkpoint (installed). Latency is reported PER DEGRADATION TIER
//     (full / degraded_cached / degraded_fallback), and every response is
//     verified to be either bit-identical to the single-threaded reference
//     for the snapshot version it reports, or carrying an explicit
//     degraded/deadline/overloaded status. Nothing may be dropped.
//
// Percentiles come from the serve.request_ns.* histograms (geometric
// buckets, ~10% resolution). Writes a machine-readable BENCH_serve.json.
//
//   ./bench_serve [--out=BENCH_serve.json] [--smoke] [--check]
//                 [--users=200] [--epochs=2] [--clients=4]
//                 [--requests=4000] [--qps=2000] [--max_batch=32]
//                 [--cache_capacity=4096] [--executors=4]
//                 [--max_queue=256] [--deadline_ms=50]
//                 [--overload_requests=3000] [--overload_burst=300]
//                 [--degraded_p99_budget_ms=1000]
//
// --check turns the run into a self-gating smoke test: the process fails
// unless every request resolved (zero drops), every score was finite and
// bit-identical or explicitly flagged, the overload phase degraded
// gracefully (fallback-tier p99 within budget), and the swap ledger reads
// exactly one install and two rollbacks.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/scorer.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"

using namespace omnimatch;

namespace {

struct TierStats {
  int64_t requests = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  /// p99 fell in the histogram's +inf tail bucket: p99_us is a clamped
  /// lower bound, not an estimate, and must not pass a latency gate.
  bool p99_tail_overflow = false;
};

struct PhaseResult {
  std::string name;
  int clients = 0;        // closed loop only
  double target_qps = 0;  // open loop only
  int64_t submitted = 0;
  int64_t resolved = 0;  // futures that yielded a response (must == submitted)
  double wall_s = 0.0;
  double qps = 0.0;  // responses carrying a score / wall_s
  TierStats full;
  TierStats degraded_cached;
  TierStats degraded_fallback;
  int64_t deadline_exceeded = 0;
  int64_t overloaded = 0;
  int64_t batches = 0;
  double mean_batch = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t stale_evictions = 0;
  int64_t swaps = 0;
  int64_t rollbacks = 0;
  bool all_finite = true;
  bool bit_identical = true;  // every scored response matched its reference
};

obs::Histogram* TierHistogram(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(
      name, obs::Histogram::LatencyBoundsNs());
}

TierStats ReadTier(const char* name) {
  obs::Histogram* h = TierHistogram(name);
  TierStats t;
  t.requests = h->Count();
  if (t.requests > 0) {
    t.p50_us = obs::HistogramQuantile(*h, 0.5) / 1e3;
    // Checked read for the gated quantile: if p99 lands in the +inf tail
    // bucket the clamped value is only a lower bound, and comparing it
    // against a budget would pass a run whose true tail blew far past it.
    t.p99_us =
        obs::HistogramQuantileChecked(*h, 0.99, &t.p99_tail_overflow) / 1e3;
    t.p999_us = obs::HistogramQuantile(*h, 0.999) / 1e3;
  }
  return t;
}

void ReadTiers(PhaseResult* phase) {
  phase->full = ReadTier("serve.request_ns.full");
  phase->degraded_cached = ReadTier("serve.request_ns.degraded_cached");
  phase->degraded_fallback = ReadTier("serve.request_ns.degraded_fallback");
}

uint64_t PairKey(int user, int item) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(user)) << 32) |
         static_cast<uint32_t>(item);
}

/// Single-threaded full-fidelity reference scores for every pool pair — the
/// baseline every concurrent full/cached response must reproduce exactly.
std::unordered_map<uint64_t, float> BuildReference(
    const std::shared_ptr<const serve::ModelSnapshot>& snap,
    const std::vector<std::pair<int, int>>& pool) {
  serve::Scorer scorer(snap, pool.size() + 1);
  std::unordered_map<uint64_t, float> ref;
  ref.reserve(pool.size());
  for (const auto& [user, item] : pool) {
    const uint64_t key = PairKey(user, item);
    if (ref.find(key) == ref.end()) ref[key] = scorer.Score(user, item);
  }
  return ref;
}

std::string TierJson(const char* name, const TierStats& t) {
  return StrFormat(
      "\"%s\": {\"requests\": %lld, \"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"p999_us\": %.1f}",
      name, static_cast<long long>(t.requests), t.p50_us, t.p99_us, t.p999_us);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  const bool smoke = flags.GetBool("smoke", false);
  const bool check = flags.GetBool("check", false);
  std::string out_path = flags.GetString("out", "BENCH_serve.json");
  const int num_users = flags.GetInt("users", smoke ? 60 : 200);
  const int epochs = flags.GetInt("epochs", smoke ? 1 : 2);
  const int clients = flags.GetInt("clients", smoke ? 2 : 4);
  const int requests = flags.GetInt("requests", smoke ? 300 : 4000);
  const double target_qps = flags.GetDouble("qps", smoke ? 500.0 : 2000.0);
  const int overload_requests =
      flags.GetInt("overload_requests", smoke ? 900 : 3000);
  const int overload_burst = flags.GetInt("overload_burst", 300);
  const double degraded_p99_budget_ms =
      flags.GetDouble("degraded_p99_budget_ms", 1000.0);
  serve::InferenceServer::Options options;
  options.max_batch = flags.GetInt("max_batch", 32);
  options.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache_capacity", 4096));
  options.executors = flags.GetInt("executors", 4);
  options.max_queue = static_cast<size_t>(flags.GetInt("max_queue", 256));
  options.deadline_ms = flags.GetInt("deadline_ms", 50);

  // --- Train a small model; checkpoint A, then one more epoch for the
  // hot-swap candidate B (same config fingerprint, different version) ---
  data::SyntheticConfig world_config;
  world_config.num_users = num_users;
  world_config.items_per_domain = num_users / 2;
  world_config.mean_reviews_per_user = 5;
  world_config.seed = 11;
  data::SyntheticWorld world(world_config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(12);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  core::OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 8;
  config.projection_dim = 4;
  config.doc_len = 16;
  config.item_doc_len = 16;
  config.batch_size = 16;
  config.epochs = epochs;
  config.select_best_epoch = false;
  config.seed = 13;

  core::OmniMatchTrainer trainer(config, &cross, split);
  if (!trainer.Prepare().ok()) {
    std::fprintf(stderr, "bench_serve: Prepare failed\n");
    return 1;
  }
  trainer.Train();
  const std::string ckpt_a = out_path + ".ckpt_a.omck";
  const std::string ckpt_b = out_path + ".ckpt_b.omck";
  const std::string ckpt_corrupt = out_path + ".ckpt_corrupt.omck";
  if (!trainer.SaveCheckpoint(ckpt_a).ok()) {
    std::fprintf(stderr, "bench_serve: SaveCheckpoint failed\n");
    return 1;
  }
  {
    core::OmniMatchConfig config_b = config;
    config_b.epochs = config.epochs + 1;
    core::OmniMatchTrainer trainer_b(config_b, &cross, split);
    if (!trainer_b.Prepare().ok() ||
        !trainer_b.LoadCheckpoint(ckpt_a).ok()) {
      std::fprintf(stderr, "bench_serve: candidate resume failed\n");
      return 1;
    }
    trainer_b.Train();
    if (!trainer_b.SaveCheckpoint(ckpt_b).ok()) {
      std::fprintf(stderr, "bench_serve: candidate SaveCheckpoint failed\n");
      return 1;
    }
  }
  {
    // A corrupt rollout candidate: checkpoint B with its payload flipped
    // mid-file; integrity checking must reject it during the swap.
    std::ifstream in(ckpt_b, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    if (bytes.size() < 256) {
      std::fprintf(stderr, "bench_serve: checkpoint too small to corrupt\n");
      return 1;
    }
    for (size_t i = bytes.size() / 2; i < bytes.size() / 2 + 16; ++i) {
      bytes[i] = static_cast<char>(~bytes[i]);
    }
    std::ofstream(ckpt_corrupt, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  serve::ModelSnapshot::Options snap_options;
  auto load_snapshot = [&](const std::string& path)
      -> std::shared_ptr<const serve::ModelSnapshot> {
    Result<std::shared_ptr<const serve::ModelSnapshot>> loaded =
        serve::ModelSnapshot::Load(config, &cross, split, path, snap_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "bench_serve: snapshot load failed: %s\n",
                   loaded.status().message().c_str());
      return nullptr;
    }
    return std::move(loaded).value();
  };
  std::shared_ptr<const serve::ModelSnapshot> snap = load_snapshot(ckpt_a);
  std::shared_ptr<const serve::ModelSnapshot> snap_b = load_snapshot(ckpt_b);
  if (snap == nullptr || snap_b == nullptr) return 1;

  // --- Request mix: every split user against random target items ---
  std::vector<int> req_users = split.train_users;
  req_users.insert(req_users.end(), split.validation_users.begin(),
                   split.validation_users.end());
  req_users.insert(req_users.end(), split.test_users.begin(),
                   split.test_users.end());
  const std::vector<int>& items = cross.target().items();
  if (req_users.empty() || items.empty()) {
    std::fprintf(stderr, "bench_serve: empty request pool\n");
    return 1;
  }
  Rng mix_rng(99);
  std::vector<std::pair<int, int>> pool(static_cast<size_t>(requests));
  for (auto& [user, item] : pool) {
    user = req_users[mix_rng.UniformU32(
        static_cast<uint32_t>(req_users.size()))];
    item = items[mix_rng.UniformU32(static_cast<uint32_t>(items.size()))];
  }

  // Single-threaded references for both snapshot versions, computed before
  // any concurrency exists: the fidelity baseline.
  const std::unordered_map<uint64_t, float> ref_a = BuildReference(snap, pool);
  const std::unordered_map<uint64_t, float> ref_b =
      BuildReference(snap_b, pool);
  const uint64_t version_a = snap->version();
  const uint64_t version_b = snap_b->version();

  serve::InferenceServer server(snap, options);
  serve::SnapshotManager::Options manager_options;
  manager_options.snapshot_options = snap_options;
  serve::SnapshotManager manager(&server, manager_options);
  obs::EnableMetrics(true);
  std::vector<PhaseResult> phases;

  // --- Closed loop: `clients` threads, back-to-back blocking requests ---
  {
    obs::MetricsRegistry::Global().ResetAll();
    int64_t batches0 = server.batches_dispatched();
    int64_t hits0 = server.scorer().cache().hits();
    int64_t misses0 = server.scorer().cache().misses();
    std::vector<float> scores(pool.size(), 0.0f);
    std::atomic<size_t> next{0};
    Stopwatch watch;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < pool.size();
             i = next.fetch_add(1)) {
          scores[i] = server.Score(pool[i].first, pool[i].second);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    PhaseResult phase;
    phase.name = "closed_loop";
    phase.clients = clients;
    phase.submitted = static_cast<int64_t>(pool.size());
    phase.resolved = phase.submitted;
    phase.wall_s = watch.ElapsedSeconds();
    phase.qps = phase.wall_s > 0
                    ? static_cast<double>(pool.size()) / phase.wall_s
                    : 0.0;
    ReadTiers(&phase);
    phase.batches = server.batches_dispatched() - batches0;
    phase.mean_batch =
        phase.batches > 0
            ? static_cast<double>(pool.size()) / phase.batches
            : 0.0;
    phase.cache_hits = server.scorer().cache().hits() - hits0;
    phase.cache_misses = server.scorer().cache().misses() - misses0;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!std::isfinite(scores[i])) phase.all_finite = false;
      auto it = ref_a.find(PairKey(pool[i].first, pool[i].second));
      if (it == ref_a.end() || it->second != scores[i]) {
        phase.bit_identical = false;
      }
    }
    phases.push_back(phase);
  }

  // --- Open loop: paced arrivals at the target rate ---
  {
    obs::MetricsRegistry::Global().ResetAll();
    int64_t batches0 = server.batches_dispatched();
    int64_t hits0 = server.scorer().cache().hits();
    int64_t misses0 = server.scorer().cache().misses();
    std::vector<std::future<serve::ScoreResult>> futures;
    futures.reserve(pool.size());
    const auto start = std::chrono::steady_clock::now();
    const auto gap = std::chrono::nanoseconds(
        static_cast<int64_t>(1e9 / std::max(1.0, target_qps)));
    Stopwatch watch;
    for (size_t i = 0; i < pool.size(); ++i) {
      // Scheduled arrival; if the dispatcher falls behind it submits
      // immediately and the achieved QPS reflects it.
      std::this_thread::sleep_until(start + gap * i);
      futures.push_back(server.ScoreAsync(pool[i].first, pool[i].second));
    }
    PhaseResult phase;
    phase.name = "open_loop";
    phase.target_qps = target_qps;
    phase.submitted = static_cast<int64_t>(pool.size());
    int64_t scored = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      const serve::ScoreResult r = futures[i].get();
      ++phase.resolved;
      if (!r.has_score()) {
        if (r.status == serve::RequestStatus::kDeadlineExceeded) {
          ++phase.deadline_exceeded;
        } else {
          ++phase.overloaded;
        }
        continue;
      }
      ++scored;
      if (!std::isfinite(r.score)) phase.all_finite = false;
      if (r.status == serve::RequestStatus::kOk) {
        auto it = ref_a.find(PairKey(pool[i].first, pool[i].second));
        if (it == ref_a.end() || it->second != r.score) {
          phase.bit_identical = false;
        }
      }
    }
    phase.wall_s = watch.ElapsedSeconds();
    phase.qps =
        phase.wall_s > 0 ? static_cast<double>(scored) / phase.wall_s : 0.0;
    ReadTiers(&phase);
    phase.batches = server.batches_dispatched() - batches0;
    phase.mean_batch =
        phase.batches > 0 ? static_cast<double>(scored) / phase.batches : 0.0;
    phase.cache_hits = server.scorer().cache().hits() - hits0;
    phase.cache_misses = server.scorer().cache().misses() - misses0;
    phases.push_back(phase);
  }

  // --- Overload + mid-traffic swaps, all probe points armed ---
  {
    obs::MetricsRegistry::Global().ResetAll();
    FaultInjector::Global().Disarm();
    // Deterministic counter-based firings: three admissions rejected, three
    // batches forced cached-only, three forced global-mean, two slowed.
    if (!FaultInjector::Global()
             .ArmFromString("queue_admit@2:count=3;"
                            "executor_score@4:mag=1,count=3;"
                            "executor_score@10:mag=2,count=3;"
                            "serve_slow@6:mag=5,count=2")
             .ok()) {
      std::fprintf(stderr, "bench_serve: fault arming failed\n");
      return 1;
    }
    int64_t batches0 = server.batches_dispatched();
    int64_t hits0 = server.scorer().cache().hits();
    int64_t misses0 = server.scorer().cache().misses();
    int64_t stale0 = server.scorer().cache().stale_evictions();
    const serve::InferenceServer::Stats stats0 = server.stats();

    struct Tagged {
      size_t pool_index;
      std::future<serve::ScoreResult> future;
    };
    std::vector<Tagged> futures;
    futures.reserve(static_cast<size_t>(overload_requests));
    PhaseResult phase;
    phase.name = "overload_swap";
    Stopwatch watch;
    int submitted = 0;
    bool did_corrupt_swap = false, did_injected_swap = false,
         did_valid_swap = false;
    while (submitted < overload_requests) {
      const int burst = std::min(overload_burst, overload_requests - submitted);
      for (int i = 0; i < burst; ++i) {
        const size_t idx = static_cast<size_t>(submitted + i) % pool.size();
        Tagged t;
        t.pool_index = idx;
        t.future = server.ScoreAsync(pool[idx].first, pool[idx].second);
        futures.push_back(std::move(t));
      }
      submitted += burst;
      // Swap attempts land mid-traffic: the queue is still draining the
      // burst while validation runs off the hot path.
      if (!did_corrupt_swap && submitted >= overload_requests / 3) {
        did_corrupt_swap = true;
        const Status s = manager.SwapFromCheckpoint(config, &cross, split,
                                                    ckpt_corrupt);
        if (s.ok()) {
          std::fprintf(stderr,
                       "bench_serve: corrupt candidate was installed!\n");
          return 1;
        }
      } else if (!did_injected_swap && submitted >= overload_requests / 2) {
        did_injected_swap = true;
        if (!FaultInjector::Global().ArmFromString("snapshot_load@0").ok()) {
          return 1;
        }
        const Status s =
            manager.SwapFromCheckpoint(config, &cross, split, ckpt_b);
        if (s.ok()) {
          std::fprintf(stderr,
                       "bench_serve: injected-fault swap was installed!\n");
          return 1;
        }
      } else if (!did_valid_swap && submitted >= overload_requests * 2 / 3) {
        did_valid_swap = true;
        const Status s =
            manager.SwapFromCheckpoint(config, &cross, split, ckpt_b);
        if (!s.ok()) {
          std::fprintf(stderr, "bench_serve: valid swap failed: %s\n",
                       s.message().c_str());
          return 1;
        }
      }
      // Let the queue drain through the degradation bands so batches
      // dispatch at every tier, not just at full pressure.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    phase.submitted = submitted;
    int64_t scored = 0;
    const float mean_a = snap->global_mean_rating();
    const float mean_b = snap_b->global_mean_rating();
    for (Tagged& t : futures) {
      const serve::ScoreResult r = t.future.get();
      ++phase.resolved;
      switch (r.status) {
        case serve::RequestStatus::kDeadlineExceeded:
          ++phase.deadline_exceeded;
          continue;
        case serve::RequestStatus::kOverloaded:
          ++phase.overloaded;
          continue;
        case serve::RequestStatus::kShuttingDown:
          phase.bit_identical = false;  // nothing was shutting down here
          continue;
        default:
          break;
      }
      ++scored;
      if (!std::isfinite(r.score)) phase.all_finite = false;
      if (r.snapshot_version != version_a && r.snapshot_version != version_b) {
        phase.bit_identical = false;
        continue;
      }
      const bool is_b = r.snapshot_version == version_b;
      if (r.status == serve::RequestStatus::kDegradedFallback) {
        // The mean tier serves exactly the snapshot's global mean.
        if (r.score != (is_b ? mean_b : mean_a)) phase.bit_identical = false;
        continue;
      }
      // kOk and kDegradedCached: bit-identical to the single-threaded
      // reference for the snapshot version that served it.
      const std::unordered_map<uint64_t, float>& ref = is_b ? ref_b : ref_a;
      const auto& [user, item] = pool[t.pool_index];
      auto it = ref.find(PairKey(user, item));
      if (it == ref.end() || it->second != r.score) {
        phase.bit_identical = false;
      }
    }
    phase.wall_s = watch.ElapsedSeconds();
    phase.qps =
        phase.wall_s > 0 ? static_cast<double>(scored) / phase.wall_s : 0.0;
    ReadTiers(&phase);
    phase.batches = server.batches_dispatched() - batches0;
    phase.mean_batch =
        phase.batches > 0 ? static_cast<double>(scored) / phase.batches : 0.0;
    phase.cache_hits = server.scorer().cache().hits() - hits0;
    phase.cache_misses = server.scorer().cache().misses() - misses0;
    phase.stale_evictions = server.scorer().cache().stale_evictions() - stale0;
    phase.swaps = manager.swaps();
    phase.rollbacks = manager.rollbacks();
    // Server-side zero-drop cross-check: completions + rejections must
    // account for every admission decision.
    const serve::InferenceServer::Stats stats1 = server.stats();
    const int64_t accounted =
        (stats1.requests_served - stats0.requests_served) +
        (stats1.deadline_exceeded - stats0.deadline_exceeded) +
        (stats1.rejected_overloaded - stats0.rejected_overloaded) +
        (stats1.rejected_shutdown - stats0.rejected_shutdown);
    if (accounted != phase.submitted) phase.bit_identical = false;
    FaultInjector::Global().Disarm();
    phases.push_back(phase);
  }
  server.Shutdown();
  obs::EnableMetrics(false);
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());
  std::remove(ckpt_corrupt.c_str());

  // --- Report ---
  std::printf("%-14s %9s %9s %10s %10s %10s %8s %9s %9s %8s\n", "phase",
              "requests", "qps", "p50_us", "p99_us", "p999_us", "batches",
              "degraded", "rejected", "swaps");
  for (const PhaseResult& p : phases) {
    std::printf(
        "%-14s %9lld %9.0f %10.1f %10.1f %10.1f %8lld %9lld %9lld %8lld\n",
        p.name.c_str(), static_cast<long long>(p.submitted), p.qps,
        p.full.p50_us, p.full.p99_us, p.full.p999_us,
        static_cast<long long>(p.batches),
        static_cast<long long>(p.degraded_cached.requests +
                               p.degraded_fallback.requests),
        static_cast<long long>(p.deadline_exceeded + p.overloaded),
        static_cast<long long>(p.swaps));
    if (p.degraded_cached.requests > 0 || p.degraded_fallback.requests > 0) {
      std::printf("  tier degraded_cached:   %6lld reqs  p99 %10.1f us\n",
                  static_cast<long long>(p.degraded_cached.requests),
                  p.degraded_cached.p99_us);
      std::printf("  tier degraded_fallback: %6lld reqs  p99 %10.1f us\n",
                  static_cast<long long>(p.degraded_fallback.requests),
                  p.degraded_fallback.p99_us);
    }
  }

  std::string json = "{\n  \"schema\": \"omnimatch-bench-serve-v2\",\n";
  json += StrFormat(
      "  \"snapshot\": {\"users\": %d, \"vocab\": %d, "
      "\"version\": \"%016llx\", \"candidate_version\": \"%016llx\"},\n",
      num_users, static_cast<int>(snap->vocabulary().size()),
      static_cast<unsigned long long>(version_a),
      static_cast<unsigned long long>(version_b));
  json += StrFormat(
      "  \"options\": {\"max_batch\": %d, \"cache_capacity\": %lld, "
      "\"executors\": %d, \"max_queue\": %lld, \"deadline_ms\": %lld},\n",
      options.max_batch, static_cast<long long>(options.cache_capacity),
      options.executors, static_cast<long long>(options.max_queue),
      static_cast<long long>(options.deadline_ms));
  json += "  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    json += StrFormat(
        "    {\"name\": \"%s\", \"clients\": %d, \"target_qps\": %.0f, "
        "\"submitted\": %lld, \"resolved\": %lld, \"wall_s\": %.3f, "
        "\"qps\": %.1f, \"batches\": %lld, \"mean_batch\": %.2f, "
        "\"cache_hits\": %lld, \"cache_misses\": %lld, "
        "\"stale_evictions\": %lld, \"deadline_exceeded\": %lld, "
        "\"overloaded\": %lld, \"swaps\": %lld, \"rollbacks\": %lld, "
        "\"bit_identical\": %s, \"tiers\": {%s, %s, %s}}%s\n",
        p.name.c_str(), p.clients, p.target_qps,
        static_cast<long long>(p.submitted),
        static_cast<long long>(p.resolved), p.wall_s, p.qps,
        static_cast<long long>(p.batches), p.mean_batch,
        static_cast<long long>(p.cache_hits),
        static_cast<long long>(p.cache_misses),
        static_cast<long long>(p.stale_evictions),
        static_cast<long long>(p.deadline_exceeded),
        static_cast<long long>(p.overloaded),
        static_cast<long long>(p.swaps),
        static_cast<long long>(p.rollbacks),
        p.bit_identical ? "true" : "false",
        TierJson("full", p.full).c_str(),
        TierJson("degraded_cached", p.degraded_cached).c_str(),
        TierJson("degraded_fallback", p.degraded_fallback).c_str(),
        i + 1 < phases.size() ? "," : "");
  }
  json += "  ]\n}\n";
  std::ofstream out(out_path);
  if (!out || !(out << json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (check) {
    bool ok = true;
    auto fail = [&](const std::string& msg) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", msg.c_str());
      ok = false;
    };
    for (const PhaseResult& p : phases) {
      if (p.resolved != p.submitted) {
        fail(p.name + ": dropped requests (" + std::to_string(p.resolved) +
             " of " + std::to_string(p.submitted) + " resolved)");
      }
      if (!p.all_finite) fail(p.name + ": non-finite score returned");
      if (!p.bit_identical) {
        fail(p.name +
             ": a response neither matched its snapshot's single-threaded "
             "reference nor carried an explicit degraded status");
      }
      if (p.batches <= 0) fail(p.name + ": no batches dispatched");
      if (p.full.requests > 0 &&
          (!(p.full.p50_us > 0.0) || p.full.p50_us > p.full.p99_us + 1e-9 ||
           p.full.p99_us > p.full.p999_us + 1e-9)) {
        fail(p.name + ": full-tier percentiles not ordered");
      }
    }
    const PhaseResult& closed = phases[0];
    if (closed.full.requests != closed.submitted) {
      fail("closed_loop: expected every request on the full tier, saw " +
           std::to_string(closed.full.requests));
    }
    const PhaseResult& overload = phases[2];
    if (overload.swaps != 1) {
      fail("overload_swap: expected exactly 1 installed swap, saw " +
           std::to_string(overload.swaps));
    }
    if (overload.rollbacks != 2) {
      fail("overload_swap: expected exactly 2 rollbacks "
           "(corrupt + injected), saw " +
           std::to_string(overload.rollbacks));
    }
    if (overload.stale_evictions <= 0) {
      fail("overload_swap: swap did not evict stale cache entries");
    }
    if (overload.degraded_fallback.requests <= 0) {
      fail("overload_swap: no requests served on the fallback tier "
           "(degradation never engaged)");
    }
    if (overload.degraded_fallback.p99_tail_overflow) {
      fail(StrFormat(
          "overload_swap: fallback-tier p99 landed in the histogram's +inf "
          "tail bucket — the reported %.1f us is only a lower bound, so the "
          "%.1f ms budget cannot be verified",
          overload.degraded_fallback.p99_us, degraded_p99_budget_ms));
    } else if (overload.degraded_fallback.p99_us >
               degraded_p99_budget_ms * 1000.0) {
      fail(StrFormat(
          "overload_swap: fallback-tier p99 %.1f us exceeds budget %.1f ms "
          "(degraded mode is not keeping latency bounded)",
          overload.degraded_fallback.p99_us, degraded_p99_budget_ms));
    }
    if (!ok) return 1;
    std::printf("serve check passed\n");
  }
  return 0;
}
