// Fault-tolerant serving tests: bounded admission (overload rejection,
// deadlines, shutdown rejection), the graceful-degradation ladder, and
// zero-downtime snapshot hot-swap with validation + rollback and corpus
// reuse — including concurrent swap-under-traffic interleavings, overload
// bursts with every serve probe point armed and three mid-traffic swap
// attempts (this suite runs in the TSan, ASan and UBSan lanes), and an
// OMNIMATCH_FAULTS-driven lane (see scripts/check.sh).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/io.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/scorer.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace serve {
namespace {

/// Disarms the global fault registry on entry AND exit so a fault armed by
/// one test can never leak into the next.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Disarm(); }
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

core::OmniMatchConfig TinyModel() {
  core::OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 8;
  config.projection_dim = 4;
  config.doc_len = 16;
  config.item_doc_len = 16;
  config.batch_size = 16;
  config.epochs = 2;
  config.select_best_epoch = false;
  config.seed = 31;
  return config;
}

/// One trained world with TWO checkpoints: A after 2 epochs and B after a
/// third epoch resumed from A. Same config fingerprint (the fingerprint
/// excludes `epochs`), different snapshot versions — a realistic hot-swap
/// candidate pair. trainer_b stays alive as the reference for snapshot B.
struct FaultWorld {
  data::CrossDomainDataset cross;
  data::ColdStartSplit split;
  core::OmniMatchConfig config;
  std::unique_ptr<core::OmniMatchTrainer> trainer_a;
  std::unique_ptr<core::OmniMatchTrainer> trainer_b;
  std::string checkpoint_a;
  std::string checkpoint_b;
  std::shared_ptr<const ModelSnapshot> snapshot_a;
  std::shared_ptr<const ModelSnapshot> snapshot_b;
};

FaultWorld* BuildWorld() {
  auto* w = new FaultWorld();
  data::SyntheticConfig world_config;
  world_config.num_users = 50;
  world_config.items_per_domain = 25;
  world_config.mean_reviews_per_user = 5;
  world_config.seed = 47;
  data::SyntheticWorld world(world_config);
  w->cross = world.MakePair("Books", "Movies");
  Rng split_rng(11);
  w->split = data::MakeColdStartSplit(w->cross, &split_rng);
  w->config = TinyModel();

  w->trainer_a = std::make_unique<core::OmniMatchTrainer>(w->config, &w->cross,
                                                          w->split);
  EXPECT_TRUE(w->trainer_a->Prepare().ok());
  w->trainer_a->Train();
  w->checkpoint_a = testing_util::TestTempDir() + "/serve_fault_a.omck";
  EXPECT_TRUE(w->trainer_a->SaveCheckpoint(w->checkpoint_a).ok());

  core::OmniMatchConfig config_b = w->config;
  config_b.epochs = w->config.epochs + 1;
  w->trainer_b = std::make_unique<core::OmniMatchTrainer>(config_b, &w->cross,
                                                          w->split);
  EXPECT_TRUE(w->trainer_b->Prepare().ok());
  EXPECT_TRUE(w->trainer_b->LoadCheckpoint(w->checkpoint_a).ok());
  w->trainer_b->Train();  // one more epoch
  w->checkpoint_b = testing_util::TestTempDir() + "/serve_fault_b.omck";
  EXPECT_TRUE(w->trainer_b->SaveCheckpoint(w->checkpoint_b).ok());

  auto load = [&](const std::string& path) {
    Result<std::shared_ptr<const ModelSnapshot>> loaded =
        ModelSnapshot::Load(w->config, &w->cross, w->split, path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.value();
  };
  w->snapshot_a = load(w->checkpoint_a);
  w->snapshot_b = load(w->checkpoint_b);
  EXPECT_NE(w->snapshot_a->version(), w->snapshot_b->version());
  return w;
}

FaultWorld& World() {
  static FaultWorld* world = BuildWorld();
  return *world;
}

std::vector<ScoreRequest> SomePairs(size_t users, size_t items_per_user) {
  FaultWorld& w = World();
  std::vector<ScoreRequest> pairs;
  const std::vector<int>& items = w.cross.target().items();
  const std::vector<int>& test_users = w.split.test_users;
  for (size_t i = 0; i < std::min(users, test_users.size()); ++i) {
    for (size_t j = 0; j < items_per_user; ++j) {
      pairs.push_back({test_users[i],
                       items[(i * items_per_user + j) % items.size()]});
    }
  }
  return pairs;
}

/// Pairs that cover every document source a snapshot scores from: frozen
/// test users, source-only users admitted online through BuildColdUserDocs,
/// and an item the snapshot has no document for.
std::vector<ScoreRequest> CorpusPairs() {
  FaultWorld& w = World();
  std::vector<ScoreRequest> pairs = SomePairs(3, 2);
  const std::vector<int>& items = w.cross.target().items();
  const std::vector<int>& target_users = w.cross.target().users();
  const std::unordered_set<int> in_target(target_users.begin(),
                                          target_users.end());
  std::vector<int> source_only;
  for (int u : w.cross.source().users()) {
    if (in_target.count(u) == 0 && source_only.size() < 2) {
      source_only.push_back(u);
    }
  }
  EXPECT_FALSE(source_only.empty()) << "world has no source-only user";
  for (size_t i = 0; i < source_only.size(); ++i) {
    EXPECT_EQ(0u, w.snapshot_a->user_target_docs().count(source_only[i]));
    EXPECT_FALSE(w.snapshot_a->BuildColdUserDocs(source_only[i]).empty());
    pairs.push_back({source_only[i], items[i % items.size()]});
  }
  const int unknown_item = *std::max_element(items.begin(), items.end()) + 1;
  pairs.push_back({w.split.test_users[0], unknown_item});
  if (!source_only.empty()) pairs.push_back({source_only[0], unknown_item});
  return pairs;
}

/// Scores of `pairs` from a fresh single-threaded Scorer over `snap`.
std::vector<float> ScoreAll(const std::shared_ptr<const ModelSnapshot>& snap,
                            const std::vector<ScoreRequest>& pairs) {
  Scorer scorer(snap, 256);
  std::vector<float> scores;
  for (const ScoreRequest& p : pairs) {
    scores.push_back(scorer.Score(p.user, p.item));
  }
  return scores;
}

TEST(AdmissionTest, ShutdownRejectsLateRequestsExplicitly) {
  FaultGuard guard;
  FaultWorld& w = World();
  InferenceServer server(w.snapshot_a, InferenceServer::Options());
  const ScoreRequest pair = SomePairs(1, 1)[0];
  EXPECT_EQ(RequestStatus::kOk,
            server.ScoreAsync(pair.user, pair.item).get().status);
  server.Shutdown();
  // A request submitted after shutdown began is answered, not dropped (and
  // certainly not a crash): the caller learns exactly why.
  ScoreResult late = server.ScoreAsync(pair.user, pair.item).get();
  EXPECT_EQ(RequestStatus::kShuttingDown, late.status);
  EXPECT_FALSE(late.has_score());
  EXPECT_EQ(1, server.stats().rejected_shutdown);
  EXPECT_EQ(1, server.stats().requests_served);
}

TEST(AdmissionTest, FullQueueRejectsOverloaded) {
  FaultGuard guard;
  FaultWorld& w = World();
  // The first dispatched batch stalls in an injected serve_slow sleep (the
  // sleep runs AFTER the pop, outside the queue lock); while the executor
  // is stuck there the queue (capacity 4) is filled and overfilled. The
  // fired() spin makes the stall certain before the flood starts, so the
  // rejection count doesn't depend on scheduling at all.
  ASSERT_TRUE(
      FaultInjector::Global().ArmFromString("serve_slow@0:mag=2000").ok());
  InferenceServer::Options options;
  options.executors = 1;
  options.max_batch = 1;
  options.max_queue = 4;
  options.degrade_fallback_fill = 1.1;  // keep the tier ladder out of this
  options.degrade_cached_fill = 1.1;
  InferenceServer server(w.snapshot_a, options);

  const std::vector<ScoreRequest> pairs = SomePairs(3, 3);
  ASSERT_GE(pairs.size(), 9u);
  std::vector<std::future<ScoreResult>> futures;
  futures.push_back(server.ScoreAsync(pairs[0].user, pairs[0].item));
  while (FaultInjector::Global().fired() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (size_t i = 1; i < 9; ++i) {
    futures.push_back(server.ScoreAsync(pairs[i].user, pairs[i].item));
  }
  int ok = 0, overloaded = 0;
  for (auto& f : futures) {
    const ScoreResult r = f.get();
    if (r.status == RequestStatus::kOverloaded) {
      ++overloaded;
      EXPECT_FALSE(r.has_score());
    } else {
      ++ok;
      EXPECT_TRUE(r.has_score());
    }
  }
  EXPECT_EQ(5, ok);  // the stalled request plus the 4 that fit in the queue
  EXPECT_EQ(4, overloaded);
  EXPECT_EQ(4, server.stats().rejected_overloaded);
  EXPECT_EQ(5, server.stats().served_full);
}

TEST(AdmissionTest, ExpiredRequestsAnsweredDeadlineExceeded) {
  FaultGuard guard;
  FaultWorld& w = World();
  // First batch is slowed 100ms by an injected fault; the requests queued
  // behind it carry 5ms deadlines, so they are expired — unscored — when
  // the executor gets back to the queue.
  ASSERT_TRUE(
      FaultInjector::Global().ArmFromString("serve_slow@0:mag=100").ok());
  InferenceServer::Options options;
  options.executors = 1;
  options.max_batch = 1;
  options.deadline_ms = 5;
  InferenceServer server(w.snapshot_a, options);

  const std::vector<ScoreRequest> pairs = SomePairs(3, 1);
  std::vector<std::future<ScoreResult>> futures;
  for (const ScoreRequest& p : pairs) {
    futures.push_back(server.ScoreAsync(p.user, p.item));
  }
  int scored = 0, expired = 0;
  for (auto& f : futures) {
    const ScoreResult r = f.get();
    if (r.status == RequestStatus::kDeadlineExceeded) {
      ++expired;
      EXPECT_FALSE(r.has_score());
    } else {
      EXPECT_EQ(RequestStatus::kOk, r.status);
      ++scored;
    }
  }
  EXPECT_EQ(1, scored);  // the slowed batch itself completes
  EXPECT_EQ(2, expired);
  EXPECT_EQ(2, server.stats().deadline_exceeded);
}

/// Asserts the server's own counters account for every ScoreAsync call
/// exactly once: the served tiers sum to requests_served, and served plus
/// every unscored status sums to the calls made.
void ExpectLedgerBalances(const InferenceServer::Stats& s, size_t calls) {
  EXPECT_EQ(s.served_full + s.served_degraded_cached +
                s.served_degraded_fallback,
            s.requests_served);
  EXPECT_EQ(s.requests_served + s.deadline_exceeded + s.rejected_overloaded +
                s.rejected_shutdown,
            static_cast<int64_t>(calls));
}

TEST(AdmissionTest, StatsLedgerBalances) {
  FaultGuard guard;
  FaultWorld& w = World();
  // Two rejected admissions, forced cached-only and global-mean batches,
  // and two slow batches whose queued requests pass their deadline.
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromString("queue_admit@2:count=2;"
                                 "executor_score@3:mag=1,count=2;"
                                 "executor_score@8:mag=2,count=2;"
                                 "serve_slow@5:mag=30,count=2")
                  .ok());
  InferenceServer::Options options;
  options.executors = 1;
  options.max_batch = 4;
  options.max_queue = 64;
  options.deadline_ms = 10;
  InferenceServer server(w.snapshot_a, options);

  // Rounds of traffic, each drained before the next: every round dispatches
  // at least one batch, so all four faults fire within ten rounds.
  const std::vector<ScoreRequest> pairs = SomePairs(6, 3);
  std::vector<int64_t> by_status(6, 0);
  size_t calls = 0;
  auto resolve = [&](std::vector<std::future<ScoreResult>>* futures) {
    for (auto& f : *futures) {
      ++by_status[static_cast<size_t>(f.get().status)];
    }
    calls += futures->size();
    futures->clear();
  };
  std::vector<std::future<ScoreResult>> futures;
  for (int round = 0; round < 10; ++round) {
    for (const ScoreRequest& p : pairs) {
      futures.push_back(server.ScoreAsync(p.user, p.item));
    }
    resolve(&futures);
  }
  server.Shutdown();
  futures.push_back(server.ScoreAsync(pairs[0].user, pairs[0].item));
  resolve(&futures);

  auto count = [&](RequestStatus status) {
    return by_status[static_cast<size_t>(status)];
  };
  const InferenceServer::Stats s = server.stats();
  EXPECT_EQ(count(RequestStatus::kOk), s.served_full);
  EXPECT_EQ(count(RequestStatus::kDegradedCached), s.served_degraded_cached);
  EXPECT_EQ(count(RequestStatus::kDegradedFallback),
            s.served_degraded_fallback);
  EXPECT_EQ(count(RequestStatus::kDeadlineExceeded), s.deadline_exceeded);
  EXPECT_EQ(count(RequestStatus::kOverloaded), s.rejected_overloaded);
  EXPECT_EQ(count(RequestStatus::kShuttingDown), s.rejected_shutdown);
  ExpectLedgerBalances(s, calls);
  // Every kind of answer occurred, so the balance is not a sum of zeros.
  EXPECT_GT(s.served_full, 0);
  EXPECT_GT(s.served_degraded_cached + s.served_degraded_fallback, 0);
  EXPECT_GT(s.deadline_exceeded, 0);
  EXPECT_EQ(2, s.rejected_overloaded);
  EXPECT_EQ(1, s.rejected_shutdown);
}

TEST(DegradationTest, QueuePressureDegradesToGlobalMean) {
  FaultGuard guard;
  FaultWorld& w = World();
  const std::vector<ScoreRequest> pairs = SomePairs(4, 2);
  // A lone request fills 1/8 of the queue, below degrade_cached_fill.
  ASSERT_GE(pairs.size(), 8u);
  // The first batch, a lone request scored at full tier, stalls in an
  // injected serve_slow sleep; the fired() spin makes the stall certain
  // before the queue is filled, so the executor provably sees the queue at
  // 100% fill when it picks the next batch's tier.
  ASSERT_TRUE(
      FaultInjector::Global().ArmFromString("serve_slow@0:mag=200").ok());
  InferenceServer::Options options;
  options.executors = 1;
  options.max_batch = static_cast<int>(pairs.size());
  options.max_queue = pairs.size();
  options.degrade_cached_fill = 0.2;
  options.degrade_fallback_fill = 0.5;
  InferenceServer server(w.snapshot_a, options);

  std::future<ScoreResult> stalled =
      server.ScoreAsync(pairs[0].user, pairs[0].item);
  while (FaultInjector::Global().fired() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::future<ScoreResult>> futures;
  for (const ScoreRequest& p : pairs) {
    futures.push_back(server.ScoreAsync(p.user, p.item));
  }
  EXPECT_EQ(RequestStatus::kOk, stalled.get().status);
  for (auto& f : futures) {
    const ScoreResult r = f.get();
    // The queue was at 100% fill at dispatch: the whole batch sheds to the
    // mean tier.
    EXPECT_EQ(RequestStatus::kDegradedFallback, r.status);
    EXPECT_EQ(w.snapshot_a->global_mean_rating(), r.score);
  }
  EXPECT_EQ(static_cast<int64_t>(pairs.size()),
            server.stats().served_degraded_fallback);
  EXPECT_EQ(1, server.stats().served_full);  // the stalled request only
}

TEST(DegradationTest, ForcedCachedTierServesHitsExactAndMissesMean) {
  FaultGuard guard;
  FaultWorld& w = World();
  InferenceServer::Options options;
  options.executors = 1;
  InferenceServer server(w.snapshot_a, options);

  const std::vector<ScoreRequest> pairs = SomePairs(2, 1);
  const ScoreRequest warm = pairs[0];  // admitted at full fidelity first
  const ScoreRequest cold = pairs[1];
  const float full_score = server.Score(warm.user, warm.item);

  // Every batch for a while is forced onto the cached-only tier, as if the
  // queue were backing up.
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromString("executor_score@0:mag=1,count=1000")
                  .ok());
  ScoreResult hit = server.ScoreAsync(warm.user, warm.item).get();
  EXPECT_EQ(RequestStatus::kDegradedCached, hit.status);
  EXPECT_EQ(full_score, hit.score);  // cache hit: bit-identical, just flagged

  ScoreResult miss = server.ScoreAsync(cold.user, cold.item).get();
  EXPECT_EQ(RequestStatus::kDegradedFallback, miss.status);
  EXPECT_EQ(w.snapshot_a->global_mean_rating(), miss.score);

  // The degraded miss did NOT poison the cache with a fallback entry: at
  // full fidelity the user admits normally and scores exactly.
  FaultInjector::Global().Disarm();
  Scorer reference(w.snapshot_a, 64);
  EXPECT_EQ(reference.Score(cold.user, cold.item),
            server.Score(cold.user, cold.item));
}

TEST(DegradationTest, ForcedFallbackTierBypassesModel) {
  FaultGuard guard;
  FaultWorld& w = World();
  InferenceServer::Options options;
  options.executors = 1;
  InferenceServer server(w.snapshot_a, options);
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromString("executor_score@0:mag=2,count=1000")
                  .ok());
  const ScoreRequest pair = SomePairs(1, 1)[0];
  const ScoreResult r = server.ScoreAsync(pair.user, pair.item).get();
  EXPECT_EQ(RequestStatus::kDegradedFallback, r.status);
  EXPECT_EQ(w.snapshot_a->global_mean_rating(), r.score);
  EXPECT_EQ(0u, server.scorer().cache().size());  // the model never ran
}

TEST(SnapshotSwapTest, SwapServesNewVersionAndEvictsStaleEntries) {
  FaultGuard guard;
  FaultWorld& w = World();
  InferenceServer::Options options;
  options.executors = 2;
  InferenceServer server(w.snapshot_a, options);
  SnapshotManager manager(&server);

  const std::vector<ScoreRequest> pairs = SomePairs(4, 2);
  for (const ScoreRequest& p : pairs) {
    EXPECT_EQ(w.trainer_a->PredictRating(p.user, p.item),
              server.Score(p.user, p.item));
  }
  EXPECT_GT(server.scorer().cache().size(), 0u);
  EXPECT_EQ(w.snapshot_a->version(), manager.active_version());

  const Status swapped = manager.SwapFromCheckpoint(
      w.config, &w.cross, w.split, w.checkpoint_b);
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  EXPECT_EQ(1, manager.swaps());
  EXPECT_EQ(0, manager.rollbacks());
  EXPECT_EQ(w.snapshot_b->version(), manager.active_version());
  EXPECT_EQ(1, server.stats().snapshot_swaps);
  // Version-A entries were evicted eagerly, not left to age out.
  EXPECT_GT(server.scorer().cache().stale_evictions(), 0);

  for (const ScoreRequest& p : pairs) {
    const ScoreResult r = server.ScoreAsync(p.user, p.item).get();
    EXPECT_EQ(RequestStatus::kOk, r.status);
    EXPECT_EQ(w.snapshot_b->version(), r.snapshot_version);
    EXPECT_EQ(w.trainer_b->PredictRating(p.user, p.item), r.score);
  }
}

/// Writes `src` to `dst` with 16 bytes flipped mid-file (past the header,
/// inside the tensor payload), so the reader's integrity checking must
/// catch it.
void WriteCorruptCopy(const std::string& src, const std::string& dst) {
  std::string bytes = ReadFileToString(src).value();
  ASSERT_GT(bytes.size(), 256u);
  for (size_t i = bytes.size() / 2; i < bytes.size() / 2 + 16; ++i) {
    bytes[i] = static_cast<char>(~bytes[i]);
  }
  std::ofstream(dst, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotSwapTest, CorruptCandidateRollsBack) {
  FaultGuard guard;
  FaultWorld& w = World();
  InferenceServer server(w.snapshot_a, InferenceServer::Options());
  SnapshotManager manager(&server);
  const std::string corrupt_path =
      testing_util::TestTempDir() + "/serve_fault_corrupt.omck";
  WriteCorruptCopy(w.checkpoint_b, corrupt_path);

  const ScoreRequest pair = SomePairs(1, 1)[0];
  const float before = server.Score(pair.user, pair.item);
  const Status swapped =
      manager.SwapFromCheckpoint(w.config, &w.cross, w.split, corrupt_path);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(0, manager.swaps());
  EXPECT_EQ(1, manager.rollbacks());
  // The incumbent never stopped serving — same version, same bits.
  EXPECT_EQ(w.snapshot_a->version(), manager.active_version());
  EXPECT_EQ(before, server.Score(pair.user, pair.item));
  std::remove(corrupt_path.c_str());
}

TEST(SnapshotSwapTest, InjectedLoadFaultRollsBackThenRetrySucceeds) {
  FaultGuard guard;
  FaultWorld& w = World();
  InferenceServer server(w.snapshot_a, InferenceServer::Options());
  SnapshotManager manager(&server);
  ASSERT_TRUE(FaultInjector::Global().ArmFromString("snapshot_load@0").ok());

  Status swapped = manager.SwapFromCheckpoint(w.config, &w.cross, w.split,
                                              w.checkpoint_b);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(1, manager.rollbacks());
  EXPECT_EQ(w.snapshot_a->version(), manager.active_version());

  // The fault fired once; the retry — the operator's next rollout attempt —
  // validates and installs cleanly.
  swapped = manager.SwapFromCheckpoint(w.config, &w.cross, w.split,
                                       w.checkpoint_b);
  EXPECT_TRUE(swapped.ok()) << swapped.ToString();
  EXPECT_EQ(1, manager.swaps());
  EXPECT_EQ(w.snapshot_b->version(), manager.active_version());
}

TEST(SnapshotSwapTest, ProbeValidationRejectsNonFiniteParameters) {
  FaultGuard guard;
  FaultWorld& w = World();
  InferenceServer server(w.snapshot_a, InferenceServer::Options());
  SnapshotManager manager(&server);

  // Load a private candidate and poison one model parameter. The golden
  // probes must catch it even though the file itself was pristine.
  Result<std::shared_ptr<const ModelSnapshot>> loaded = ModelSnapshot::Load(
      w.config, &w.cross, w.split, w.checkpoint_b);
  ASSERT_TRUE(loaded.ok());
  std::shared_ptr<const ModelSnapshot> candidate = std::move(loaded).value();
  std::vector<nn::Tensor> params = candidate->model()->Parameters();
  ASSERT_FALSE(params.empty());
  for (nn::Tensor& p : params) {
    p.data()[0] = std::numeric_limits<float>::quiet_NaN();
  }

  const Status swapped = manager.SwapTo(candidate);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, swapped.code());
  EXPECT_EQ(1, manager.rollbacks());
  EXPECT_EQ(w.snapshot_a->version(), manager.active_version());
}

// A swap between checkpoints of the serving scenario loads the candidate
// onto the incumbent's frozen corpus; its answers must equal a fresh load of
// the same checkpoint bit for bit.
TEST(SnapshotSwapTest, SameScenarioSwapSharesCorpusBitIdentically) {
  FaultGuard guard;
  FaultWorld& w = World();
  const std::vector<ScoreRequest> pairs = CorpusPairs();
  Result<std::shared_ptr<const ModelSnapshot>> incumbent =
      ModelSnapshot::Load(w.config, &w.cross, w.split, w.checkpoint_a);
  ASSERT_TRUE(incumbent.ok()) << incumbent.status().ToString();
  InferenceServer server(incumbent.value(), InferenceServer::Options());
  SnapshotManager manager(&server);

  const Status swapped = manager.SwapFromCheckpoint(w.config, &w.cross,
                                                    w.split, w.checkpoint_b);
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  const std::shared_ptr<const ModelSnapshot> candidate =
      server.scorer().CurrentSnapshot();
  EXPECT_EQ(&incumbent.value()->item_docs(), &candidate->item_docs());

  Result<std::shared_ptr<const ModelSnapshot>> fresh =
      ModelSnapshot::Load(w.config, &w.cross, w.split, w.checkpoint_b);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_NE(&fresh.value()->item_docs(), &candidate->item_docs());
  EXPECT_EQ(fresh.value()->version(), candidate->version());
  const std::vector<float> want = ScoreAll(fresh.value(), pairs);
  EXPECT_EQ(want, ScoreAll(candidate, pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(want[i], server.Score(pairs[i].user, pairs[i].item))
        << "pair " << i;
  }
}

// Any other scenario — a different split, or a different dataset object
// even with equal contents — gets a corpus of its own, equal to what a
// fresh load under that scenario builds.
TEST(SnapshotSwapTest, OtherScenarioSwapBuildsItsOwnCorpus) {
  FaultGuard guard;
  FaultWorld& w = World();
  const std::vector<ScoreRequest> pairs = CorpusPairs();
  data::ColdStartSplit other_split = w.split;
  std::swap(other_split.validation_users, other_split.test_users);
  const data::CrossDomainDataset other_cross = w.cross;

  struct Scenario {
    const char* name;
    const data::CrossDomainDataset* cross;
    const data::ColdStartSplit* split;
  };
  for (const Scenario& scenario :
       {Scenario{"split", &w.cross, &other_split},
        Scenario{"dataset", &other_cross, &w.split}}) {
    SCOPED_TRACE(scenario.name);
    InferenceServer server(w.snapshot_a, InferenceServer::Options());
    SnapshotManager manager(&server);
    const Status swapped = manager.SwapFromCheckpoint(
        w.config, scenario.cross, *scenario.split, w.checkpoint_b);
    ASSERT_TRUE(swapped.ok()) << swapped.ToString();
    const std::shared_ptr<const ModelSnapshot> candidate =
        server.scorer().CurrentSnapshot();
    EXPECT_NE(&w.snapshot_a->item_docs(), &candidate->item_docs());
    EXPECT_EQ(scenario.cross, candidate->cross());

    Result<std::shared_ptr<const ModelSnapshot>> fresh = ModelSnapshot::Load(
        w.config, scenario.cross, *scenario.split, w.checkpoint_b);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(ScoreAll(fresh.value(), pairs), ScoreAll(candidate, pairs));
  }
}

// Reusing the corpus skips no check: a checkpoint written under another
// config is still refused by its fingerprint and counted as a rollback.
TEST(SnapshotSwapTest, FingerprintMismatchRollsBackOnSharedCorpus) {
  FaultGuard guard;
  FaultWorld& w = World();
  core::OmniMatchConfig other = w.config;
  other.seed = w.config.seed + 1;
  core::OmniMatchTrainer trainer(other, &w.cross, w.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  const std::string path =
      testing_util::TestTempDir() + "/serve_fault_other.omck";
  ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());

  InferenceServer server(w.snapshot_a, InferenceServer::Options());
  SnapshotManager manager(&server);
  const Status swapped =
      manager.SwapFromCheckpoint(w.config, &w.cross, w.split, path);
  EXPECT_EQ(StatusCode::kInvalidArgument, swapped.code())
      << swapped.ToString();
  EXPECT_EQ(0, manager.swaps());
  EXPECT_EQ(1, manager.rollbacks());
  EXPECT_EQ(w.snapshot_a->version(), manager.active_version());
  std::remove(path.c_str());
}

// Corrupt OMCK files through the live server: one checkpoint swept with a
// stride of truncations and single-bit flips, with every section boundary
// (frame header, each section's tag, size and body) cut and flipped on
// both sides, each variant swapped in while traffic flows, then resealed
// copies with a non-finite or short parameter. Every variant must roll back
// with a Status (kInvalidArgument for the resealed ones), and the
// incumbent must keep answering kOk with the bits of its single-threaded
// reference.
TEST(SnapshotSwapTest, CorruptCheckpointSweepRollsBackUnderTraffic) {
  FaultGuard guard;
  FaultWorld& w = World();
  const std::string bytes = ReadFileToString(w.checkpoint_b).value();
  ASSERT_GT(bytes.size(), 64u);

  // The frame header is 20 bytes; then sections of `u32 tag, u64 size,
  // body` (core/checkpoint.cc) up to the end of the file.
  constexpr size_t kFrameHeader = 20;
  std::vector<size_t> boundaries = {0, kFrameHeader};
  for (size_t at = kFrameHeader; at + 12 <= bytes.size();) {
    uint64_t size = 0;
    std::memcpy(&size, bytes.data() + at + 4, sizeof size);
    ASSERT_LE(size, bytes.size() - at - 12) << "section at " << at;
    boundaries.insert(boundaries.end(), {at + 4, at + 12});
    at += 12 + size;
    boundaries.push_back(at);
  }
  ASSERT_EQ(bytes.size(), boundaries.back());
  ASSERT_GE(boundaries.size(), 2u + 3u * 6u) << "too few sections parsed";

  // (cut length, or the byte to flip with its bit): SIZE_MAX marks a flip.
  struct Variant {
    size_t cut = SIZE_MAX;
    size_t flip_at = 0;
    int bit = 0;
  };
  std::vector<Variant> variants;
  auto add_around = [&](size_t at) {
    for (size_t p = at > 0 ? at - 1 : 0; p <= at + 1; ++p) {
      if (p < bytes.size()) {
        variants.push_back({p, 0, 0});
        variants.push_back({SIZE_MAX, p, static_cast<int>(p % 8)});
      }
    }
  };
  for (size_t b : boundaries) add_around(b);
  const size_t stride = std::max<size_t>(1, bytes.size() / 48);
  for (size_t p = stride / 2; p < bytes.size(); p += stride) {
    variants.push_back({p, 0, 0});
    variants.push_back({SIZE_MAX, p, static_cast<int>((p / stride) % 8)});
  }

  const std::vector<ScoreRequest> pairs = CorpusPairs();
  const std::vector<float> reference = ScoreAll(w.snapshot_a, pairs);
  InferenceServer::Options options;
  options.executors = 2;
  options.max_batch = 4;
  options.max_queue = 0;  // unbounded: every request scores at full tier
  InferenceServer server(w.snapshot_a, options);
  SnapshotManager manager(&server);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0}, wrong{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t round = 0; !stop.load(); ++round) {
        std::vector<std::future<ScoreResult>> futures;
        for (size_t i = 0; i < pairs.size(); ++i) {
          const size_t k = (i + round + static_cast<size_t>(t)) % pairs.size();
          futures.push_back(server.ScoreAsync(pairs[k].user, pairs[k].item));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          const size_t k = (i + round + static_cast<size_t>(t)) % pairs.size();
          const ScoreResult r = futures[i].get();
          if (r.status != RequestStatus::kOk ||
              r.snapshot_version != w.snapshot_a->version() ||
              r.score != reference[k]) {
            wrong.fetch_add(1);
          }
          answered.fetch_add(1);
        }
      }
    });
  }

  // The sweep starts once traffic is flowing.
  while (answered.load() < static_cast<int64_t>(pairs.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string path =
      testing_util::TestTempDir() + "/serve_fault_sweep.omck";
  for (const Variant& v : variants) {
    std::string corrupt = bytes;
    if (v.cut != SIZE_MAX) {
      corrupt.resize(v.cut);
    } else {
      corrupt[v.flip_at] = static_cast<char>(corrupt[v.flip_at] ^ (1 << v.bit));
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    const Status swapped =
        manager.SwapFromCheckpoint(w.config, &w.cross, w.split, path);
    EXPECT_FALSE(swapped.ok())
        << (v.cut != SIZE_MAX ? "cut at " + std::to_string(v.cut)
                              : "flip at " + std::to_string(v.flip_at));
  }
  // Fields the CRC cannot vouch for: B resealed (valid frame) with a
  // parameter the load's parameter check must reject.
  const core::CheckpointState valid =
      core::LoadCheckpointFile(w.checkpoint_b).value();
  const std::vector<std::pair<std::string,
                              std::function<void(core::CheckpointState*)>>>
      resealed = {
          {"NaN in last parameter",
           [](core::CheckpointState* s) {
             s->params.back()[0] = std::numeric_limits<float>::quiet_NaN();
           }},
          {"+inf in first parameter",
           [](core::CheckpointState* s) {
             s->params.front()[0] = std::numeric_limits<float>::infinity();
           }},
          {"parameter one value short",
           [](core::CheckpointState* s) { s->params.back().pop_back(); }},
      };
  for (const auto& [name, mutate] : resealed) {
    core::CheckpointState state = valid;
    mutate(&state);
    EXPECT_TRUE(core::SaveCheckpointFile(path, state).ok()) << name;
    const Status swapped =
        manager.SwapFromCheckpoint(w.config, &w.cross, w.split, path);
    EXPECT_EQ(StatusCode::kInvalidArgument, swapped.code())
        << name << ": " << swapped.ToString();
  }
  stop = true;
  for (std::thread& th : submitters) th.join();
  server.Shutdown();
  std::remove(path.c_str());

  EXPECT_EQ(static_cast<int64_t>(variants.size() + resealed.size()),
            manager.rollbacks());
  EXPECT_EQ(0, manager.swaps());
  EXPECT_EQ(w.snapshot_a->version(), manager.active_version());
  EXPECT_EQ(0, wrong.load()) << "of " << answered.load() << " answers";
  EXPECT_GT(answered.load(), 0);
}

// Many submitters, several executors, and hot swaps A->B->A->B through the
// manager landing mid-traffic (this runs in the TSan, ASan and UBSan
// lanes). Every response must carry a score matching the EXACT snapshot
// version it reports — no torn batches, no stale reps — and equal to a
// fresh load of that checkpoint. The server starts on a private load of A
// whose corpus every later candidate shares, so once the first swap
// retires it, that corpus outlives the snapshot that built it while
// executors still score from it.
TEST(SnapshotSwapTest, ConcurrentTrafficAcrossSwapIsVersionConsistent) {
  FaultGuard guard;
  FaultWorld& w = World();
  const std::vector<ScoreRequest> pairs = SomePairs(6, 3);

  std::vector<float> ref_a, ref_b;
  {
    Scorer sa(w.snapshot_a, 256), sb(w.snapshot_b, 256);
    for (const ScoreRequest& p : pairs) {
      ref_a.push_back(sa.Score(p.user, p.item));
      ref_b.push_back(sb.Score(p.user, p.item));
    }
  }

  InferenceServer::Options options;
  options.executors = 4;
  options.max_batch = 8;
  options.cache_capacity = 8;  // churn: evictions while swapping
  options.max_queue = 0;       // unbounded: every request scores at full tier
  Result<std::shared_ptr<const ModelSnapshot>> first =
      ModelSnapshot::Load(w.config, &w.cross, w.split, w.checkpoint_a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const ServingCorpus* corpus = first.value()->corpus().get();
  InferenceServer server(std::move(first).value(), options);
  SnapshotManager manager(&server);

  constexpr int kThreads = 4;
  constexpr int kMinRounds = 6;
  struct Got {
    size_t pair = 0;
    std::future<ScoreResult> future;
  };
  std::atomic<bool> swaps_done{false};
  std::vector<std::vector<Got>> submitted(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      // Traffic keeps flowing until every swap has landed; waiting for each
      // round's last answer keeps the backlog bounded meanwhile.
      for (int round = 0; round < kMinRounds || !swaps_done.load(); ++round) {
        for (size_t i = 0; i < pairs.size(); ++i) {
          const size_t idx = (i * (t + 1) + round) % pairs.size();
          Got g;
          g.pair = idx;
          g.future = server.ScoreAsync(pairs[idx].user, pairs[idx].item);
          submitted[t].push_back(std::move(g));
        }
        submitted[t].back().future.wait();
      }
    });
  }
  // Each swap waits for fresh traffic first, so every version serves some.
  for (const std::string* path :
       {&w.checkpoint_b, &w.checkpoint_a, &w.checkpoint_b}) {
    const int64_t served = server.stats().requests_served;
    while (server.stats().requests_served == served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Status swapped =
        manager.SwapFromCheckpoint(w.config, &w.cross, w.split, *path);
    EXPECT_TRUE(swapped.ok()) << swapped.ToString();
    EXPECT_EQ(corpus, server.scorer().CurrentSnapshot()->corpus().get());
  }
  swaps_done = true;
  for (std::thread& th : submitters) th.join();
  server.Shutdown();
  EXPECT_EQ(3, manager.swaps());
  EXPECT_EQ(w.snapshot_b->version(), manager.active_version());

  int served_a = 0, served_b = 0;
  for (auto& per_thread : submitted) {
    for (Got& g : per_thread) {
      const ScoreResult r = g.future.get();
      ASSERT_EQ(RequestStatus::kOk, r.status);
      if (r.snapshot_version == w.snapshot_a->version()) {
        ++served_a;
        ASSERT_EQ(ref_a[g.pair], r.score) << "pair " << g.pair;
      } else {
        ASSERT_EQ(w.snapshot_b->version(), r.snapshot_version);
        ++served_b;
        ASSERT_EQ(ref_b[g.pair], r.score) << "pair " << g.pair;
      }
    }
  }
  EXPECT_EQ(static_cast<int64_t>(served_a + served_b),
            server.stats().requests_served);
  EXPECT_GT(served_a, 0);
  EXPECT_GT(served_b, 0);
}

/// Turns the clock-based serve histograms on for one scope.
struct MetricsOn {
  MetricsOn() { obs::EnableMetrics(true); }
  ~MetricsOn() { obs::EnableMetrics(false); }
};

// Overload plus hot swap with every serve probe point armed: bursts past
// max_queue (the first while every executor is stalled, so admission control
// itself rejects), and three candidates swapped in while a burst is still
// queued —
// a corrupt copy of B and B under an injected snapshot_load fault (both roll
// back), then B itself (installs). Every request is answered exactly once;
// every score is finite and either bit-identical to the single-threaded
// reference of the version it reports or explicitly degraded; and the
// fallback tier, which has to engage, keeps its p99 bounded.
TEST(SnapshotSwapTest, OverloadWithMidTrafficSwapsAnswersEveryRequest) {
  FaultGuard guard;
  FaultWorld& w = World();
  const std::string corrupt_path =
      testing_util::TestTempDir() + "/serve_fault_overload_corrupt.omck";
  WriteCorruptCopy(w.checkpoint_b, corrupt_path);

  // Every split user against random target items.
  std::vector<int> users = w.split.train_users;
  for (const std::vector<int>* more :
       {&w.split.validation_users, &w.split.test_users}) {
    users.insert(users.end(), more->begin(), more->end());
  }
  const std::vector<int>& items = w.cross.target().items();
  Rng mix_rng(99);
  std::vector<ScoreRequest> pool(300);
  for (ScoreRequest& p : pool) {
    p.user = users[mix_rng.UniformU32(static_cast<uint32_t>(users.size()))];
    p.item = items[mix_rng.UniformU32(static_cast<uint32_t>(items.size()))];
  }
  const std::vector<float> ref_a = ScoreAll(w.snapshot_a, pool);
  const std::vector<float> ref_b = ScoreAll(w.snapshot_b, pool);

  // Counter-based firings: three admissions rejected, three batches forced
  // cached-only, three forced global-mean, and the first four batches (one
  // per executor) stalled for 100 ms, then two more slowed by 5 ms.
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromString("queue_admit@2:count=3;"
                                 "executor_score@4:mag=1,count=3;"
                                 "executor_score@10:mag=2,count=3;"
                                 "serve_slow@0:mag=100,count=4;"
                                 "serve_slow@6:mag=5,count=2")
                  .ok());
  MetricsOn metrics;
  obs::Histogram* full_ns = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request_ns.full", obs::Histogram::LatencyBoundsNs());
  obs::Histogram* fallback_ns = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request_ns.degraded_fallback", obs::Histogram::LatencyBoundsNs());
  full_ns->Reset();
  fallback_ns->Reset();

  InferenceServer::Options options;
  options.executors = 4;
  options.max_batch = 32;
  options.max_queue = 256;
  options.deadline_ms = 50;
  InferenceServer server(w.snapshot_a, options);
  SnapshotManager manager(&server);

  // The stalled executors hold at most 4 x max_batch = 128 requests, so the
  // first burst's 512 pass max_queue whatever the machine's speed.
  constexpr size_t kBursts = 3, kFirstBurst = 512, kBurst = 300;
  std::vector<std::future<ScoreResult>> futures;
  for (size_t burst = 0; burst < kBursts; ++burst) {
    const size_t first = futures.size();
    for (size_t i = 0; i < (burst == 0 ? kFirstBurst : kBurst); ++i) {
      const ScoreRequest& p = pool[futures.size() % pool.size()];
      futures.push_back(server.ScoreAsync(p.user, p.item));
    }
    if (burst == 0) {
      EXPECT_FALSE(manager
                       .SwapFromCheckpoint(w.config, &w.cross, w.split,
                                           corrupt_path)
                       .ok());
    } else if (burst == 1) {
      ASSERT_TRUE(FaultInjector::Global().ArmFromString("snapshot_load@0").ok());
      EXPECT_FALSE(manager
                       .SwapFromCheckpoint(w.config, &w.cross, w.split,
                                           w.checkpoint_b)
                       .ok());
    } else {
      const Status swapped = manager.SwapFromCheckpoint(
          w.config, &w.cross, w.split, w.checkpoint_b);
      EXPECT_TRUE(swapped.ok()) << swapped.ToString();
    }
    // The burst drains through every degradation band before the next.
    for (size_t i = first; i < futures.size(); ++i) futures[i].wait();
  }

  int64_t overloaded = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const ScoreResult r = futures[i].get();
    if (r.status == RequestStatus::kDeadlineExceeded ||
        r.status == RequestStatus::kOverloaded) {
      EXPECT_FALSE(r.has_score()) << "request " << i;
      if (r.status == RequestStatus::kOverloaded) ++overloaded;
      continue;
    }
    ASSERT_NE(RequestStatus::kShuttingDown, r.status) << "request " << i;
    EXPECT_TRUE(std::isfinite(r.score)) << "request " << i;
    const bool is_b = r.snapshot_version == w.snapshot_b->version();
    ASSERT_TRUE(is_b || r.snapshot_version == w.snapshot_a->version())
        << "request " << i;
    const ModelSnapshot& snap = is_b ? *w.snapshot_b : *w.snapshot_a;
    const float want = r.status == RequestStatus::kDegradedFallback
                           ? snap.global_mean_rating()
                           : (is_b ? ref_b : ref_a)[i % pool.size()];
    EXPECT_EQ(want, r.score)
        << "request " << i << " " << RequestStatusName(r.status);
  }
  std::remove(corrupt_path.c_str());

  const InferenceServer::Stats s = server.stats();
  ExpectLedgerBalances(s, futures.size());
  // Capacity rejections beyond the three injected queue_admit ones.
  EXPECT_EQ(overloaded, s.rejected_overloaded);
  EXPECT_GT(overloaded, 3);
  EXPECT_GT(s.batches_dispatched, 0);
  EXPECT_EQ(1, manager.swaps());
  EXPECT_EQ(2, manager.rollbacks());
  EXPECT_EQ(w.snapshot_b->version(), manager.active_version());
  EXPECT_GT(server.scorer().cache().stale_evictions(), 0);

  EXPECT_GT(s.served_degraded_fallback, 0);
  EXPECT_EQ(s.served_degraded_fallback, fallback_ns->Count());
  bool tail_overflow = false;
  const double fallback_p99_ns =
      obs::HistogramQuantileChecked(*fallback_ns, 0.99, &tail_overflow);
  EXPECT_FALSE(tail_overflow)
      << "fallback-tier p99 is past the last bucket, at least "
      << fallback_p99_ns / 1e6 << " ms";
  EXPECT_LE(fallback_p99_ns, 1000e6);
  if (full_ns->Count() > 0) {
    const double p50 = obs::HistogramQuantile(*full_ns, 0.5);
    const double p99 = obs::HistogramQuantile(*full_ns, 0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, obs::HistogramQuantile(*full_ns, 0.999));
  }
}

// Driven by scripts/check.sh with OMNIMATCH_FAULTS arming every serve probe
// point; a plain `ctest` run (env unset) skips it. Asserts the contract of
// OverloadWithMidTrafficSwapsAnswersEveryRequest under the faults the
// environment arms: under injected admission faults, forced degraded
// tiers, slow batches, and a failing swap, every submitted request is
// answered with an explicit status and the server keeps serving.
TEST(ServeFaultEnvTest, SurvivesEnvArmedFaultsUnderTraffic) {
  const char* env = std::getenv("OMNIMATCH_FAULTS");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "OMNIMATCH_FAULTS not set; run via scripts/check.sh";
  }
  FaultWorld& w = World();
  ASSERT_TRUE(FaultInjector::Global().armed());

  InferenceServer::Options options;
  options.executors = 4;
  options.max_batch = 8;
  options.max_queue = 64;
  options.deadline_ms = 200;
  InferenceServer server(w.snapshot_a, options);
  SnapshotManager manager(&server);

  const std::vector<ScoreRequest> pairs = SomePairs(6, 3);
  std::vector<std::future<ScoreResult>> futures;
  for (int round = 0; round < 10; ++round) {
    for (const ScoreRequest& p : pairs) {
      futures.push_back(server.ScoreAsync(p.user, p.item));
    }
    if (round == 4) {
      // With snapshot_load armed this rolls back; either way the server
      // must keep answering.
      const Status swapped = manager.SwapFromCheckpoint(
          w.config, &w.cross, w.split, w.checkpoint_b);
      (void)swapped;
    }
  }

  int with_score = 0, rejected = 0;
  for (auto& f : futures) {
    const ScoreResult r = f.get();  // resolves: nothing is ever dropped
    if (r.has_score()) {
      ++with_score;
      EXPECT_GE(r.score, 1.0f);
      EXPECT_LE(r.score, 5.0f);
    } else {
      ++rejected;
      EXPECT_TRUE(r.status == RequestStatus::kDeadlineExceeded ||
                  r.status == RequestStatus::kOverloaded)
          << RequestStatusName(r.status);
    }
  }
  EXPECT_EQ(futures.size(), static_cast<size_t>(with_score + rejected));
  ExpectLedgerBalances(server.stats(), futures.size());
  EXPECT_GT(with_score, 0);
  EXPECT_GT(FaultInjector::Global().fired(), 0);
  FaultInjector::Global().Disarm();
}

}  // namespace
}  // namespace serve
}  // namespace omnimatch
