// Serving runtime tests: snapshot load + bit-identity against the trainer's
// evaluation path, LRU cache behavior, deterministic online cold-start
// admission, and micro-batch coalescing under concurrent submitters (this
// suite runs in the TSan lane — see scripts/check.sh).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/threadpool.h"
#include "core/checkpoint.h"
#include "core/string_documents.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/scorer.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace serve {
namespace {

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
  // The snapshot must hold exactly the parameters the live trainer scores
  // with, so skip best-epoch selection (which would freeze an earlier
  // epoch's weights into the checkpoint).
  config.select_best_epoch = false;
  config.seed = 31;
  return config;
}

/// One trained world shared by every test: training even the tiny model is
/// the dominant cost, so do it once. The trainer stays alive to provide the
/// PredictRating reference values.
struct ServeWorld {
  data::CrossDomainDataset cross;
  data::ColdStartSplit split;
  core::OmniMatchConfig config;
  std::unique_ptr<core::OmniMatchTrainer> trainer;
  std::string checkpoint_path;
  std::shared_ptr<const ModelSnapshot> snapshot;
  /// A source-only user: has source-domain records but no entry in the
  /// snapshot's frozen target documents (the online-admission case).
  int source_only_user = -1;
};

ServeWorld* BuildWorld() {
  auto* w = new ServeWorld();
  data::SyntheticConfig world_config;
  world_config.num_users = 60;
  world_config.items_per_domain = 30;
  world_config.mean_reviews_per_user = 5;
  world_config.participation = 0.8;  // leaves some source-only users
  world_config.seed = 21;
  data::SyntheticWorld world(world_config);
  w->cross = world.MakePair("Books", "Movies");
  Rng split_rng(7);
  w->split = data::MakeColdStartSplit(w->cross, &split_rng);
  w->config = TinyModel();

  w->trainer = std::make_unique<core::OmniMatchTrainer>(w->config, &w->cross,
                                                        w->split);
  EXPECT_TRUE(w->trainer->Prepare().ok());
  w->trainer->Train();
  w->checkpoint_path = testing_util::TestTempDir() + "/serve_test.omck";
  EXPECT_TRUE(w->trainer->SaveCheckpoint(w->checkpoint_path).ok());

  Result<std::shared_ptr<const ModelSnapshot>> loaded = ModelSnapshot::Load(
      w->config, &w->cross, w->split, w->checkpoint_path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  w->snapshot = loaded.value();

  std::unordered_set<int> target_users(w->cross.target().users().begin(),
                                       w->cross.target().users().end());
  for (int u : w->cross.source().users()) {
    if (target_users.count(u) == 0) {
      w->source_only_user = u;
      break;
    }
  }
  EXPECT_GE(w->source_only_user, 0)
      << "synthetic world has no source-only user; lower participation";
  return w;
}

ServeWorld& World() {
  static ServeWorld* world = BuildWorld();
  return *world;
}

/// Stalls the server's (single) executor: arms an injected serve_slow
/// sleep of `stall_ms` on the first dispatched batch, submits `first` as
/// that batch, and returns once the executor is inside the sleep. Requests
/// submitted before the sleep ends queue behind it, so a test can build a
/// backlog without racing the executor. The caller disarms the registry.
std::future<ScoreResult> StallExecutor(InferenceServer* server,
                                       const ScoreRequest& first,
                                       int stall_ms) {
  EXPECT_TRUE(FaultInjector::Global()
                  .ArmFromString("serve_slow@0:mag=" + std::to_string(stall_ms))
                  .ok());
  std::future<ScoreResult> stalled = server->ScoreAsync(first.user, first.item);
  while (FaultInjector::Global().fired() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return stalled;
}

/// Disarms the global fault registry on entry and exit.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Disarm(); }
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

/// A spread of (user, item) pairs: cold test users, train users, several
/// items per user (the second item per user exercises the cache-hit path).
std::vector<ScoreRequest> ReferencePairs() {
  ServeWorld& w = World();
  std::vector<ScoreRequest> pairs;
  const std::vector<int>& items = w.cross.target().items();
  auto add_users = [&](const std::vector<int>& users, size_t count) {
    for (size_t i = 0; i < std::min(count, users.size()); ++i) {
      for (size_t j = 0; j < 3; ++j) {
        pairs.push_back(
            {users[i], items[(i * 3 + j * 7) % items.size()]});
      }
    }
  };
  add_users(w.split.test_users, 4);
  add_users(w.split.validation_users, 2);
  add_users(w.split.train_users, 4);
  return pairs;
}

TEST(ModelSnapshotTest, LoadRejectsFingerprintMismatch) {
  ServeWorld& w = World();
  core::OmniMatchConfig other = w.config;
  other.seed = w.config.seed + 1;
  Result<std::shared_ptr<const ModelSnapshot>> loaded =
      ModelSnapshot::Load(other, &w.cross, w.split, w.checkpoint_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelSnapshotTest, LoadRejectsMissingFile) {
  ServeWorld& w = World();
  Result<std::shared_ptr<const ModelSnapshot>> loaded = ModelSnapshot::Load(
      w.config, &w.cross, w.split,
      testing_util::TestTempDir() + "/nonexistent.omck");
  ASSERT_FALSE(loaded.ok());
}

// A first load checks the parameters it installs as a trainer resume does:
// a checkpoint resealed with a non-finite value (valid CRC) is rejected
// before any server can score from it.
TEST(ModelSnapshotTest, FirstLoadRejectsNonFiniteParameters) {
  ServeWorld& w = World();
  const core::CheckpointState valid =
      core::LoadCheckpointFile(w.checkpoint_path).value();
  ASSERT_TRUE(valid.best_params.empty());
  const std::string path = testing_util::TestTempDir() + "/nonfinite.omck";
  for (const bool last : {true, false}) {
    core::CheckpointState state = valid;
    if (last) {
      state.params.back()[0] = std::numeric_limits<float>::quiet_NaN();
    } else {
      state.params.front()[0] = std::numeric_limits<float>::infinity();
    }
    ASSERT_TRUE(core::SaveCheckpointFile(path, state).ok());
    Result<std::shared_ptr<const ModelSnapshot>> loaded =
        ModelSnapshot::Load(w.config, &w.cross, w.split, path);
    ASSERT_FALSE(loaded.ok()) << (last ? "NaN in last" : "+inf in first");
    EXPECT_EQ(StatusCode::kInvalidArgument, loaded.status().code())
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// Building a snapshot's corpus runs the trainer's Prepare(), which applies
// the config's pool size and sinks process-wide. A load must not: with the
// default num_threads = 0 it would resize the pool every executor shares to
// the hardware count, overriding --threads, and a named sink would switch
// tracing or metrics on for the whole server.
TEST(ModelSnapshotTest, LoadLeavesProcessGlobalStateAlone) {
  ServeWorld& w = World();
  const int before = GetNumThreads();
  const bool tracing = obs::TracingEnabled();
  const bool metrics = obs::MetricsEnabled();
  // A size the automatic setting cannot resolve to.
  const int pinned =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) + 1;
  SetNumThreads(pinned);

  core::OmniMatchConfig config = w.config;
  config.num_threads = 0;
  config.trace_out = testing_util::TestTempDir() + "/unused_trace.json";
  config.metrics_out = testing_util::TestTempDir() + "/unused_metrics.jsonl";
  Result<std::shared_ptr<const ModelSnapshot>> loaded =
      ModelSnapshot::Load(config, &w.cross, w.split, w.checkpoint_path);
  const int threads_after = GetNumThreads();
  const bool tracing_after = obs::TracingEnabled();
  const bool metrics_after = obs::MetricsEnabled();
  SetNumThreads(before);
  obs::EnableTracing(tracing);
  obs::EnableMetrics(metrics);

  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(pinned, threads_after);
  EXPECT_EQ(tracing, tracing_after);
  EXPECT_EQ(metrics, metrics_after);
}

TEST(ScorerTest, BitIdenticalToTrainerEvalPath) {
  ServeWorld& w = World();
  Scorer scorer(w.snapshot, /*cache_capacity=*/256);
  for (const ScoreRequest& p : ReferencePairs()) {
    const float expected = w.trainer->PredictRating(p.user, p.item);
    const float got = scorer.Score(p.user, p.item);
    // Exact equality: the serving path must reproduce the trainer's eval
    // math bit-for-bit, cached representations and re-batching included.
    ASSERT_EQ(expected, got) << "user " << p.user << " item " << p.item;
  }
}

TEST(ScorerTest, BatchedScoringMatchesUnbatched) {
  ServeWorld& w = World();
  std::vector<ScoreRequest> pairs = ReferencePairs();

  Scorer unbatched(w.snapshot, 256);
  std::vector<float> one_by_one;
  for (const ScoreRequest& p : pairs) {
    one_by_one.push_back(unbatched.Score(p.user, p.item));
  }
  Scorer batched(w.snapshot, 256);
  std::vector<float> all_at_once = batched.ScoreBatch(pairs);
  ASSERT_EQ(one_by_one.size(), all_at_once.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(one_by_one[i], all_at_once[i]) << "pair " << i;
  }
}

// First written for the int8 head; the float scorer keeps the same
// contract, so the test keeps its name and checks the float path.
TEST(QuantScorerTest, DeterministicAcrossCallsAndThreadCounts) {
  ServeWorld& w = World();
  std::vector<ScoreRequest> pairs = ReferencePairs();

  Scorer a(w.snapshot, /*cache_capacity=*/256);
  std::vector<float> first = a.ScoreBatch(pairs);
  std::vector<float> second = a.ScoreBatch(pairs);
  EXPECT_EQ(first, second) << "same scorer, same batch: must be exact";

  // A fresh scorer (cold cache) at another thread count must still
  // reproduce every bit: row sharding never splits an output element.
  const int before = GetNumThreads();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    Scorer b(w.snapshot, /*cache_capacity=*/256);
    EXPECT_EQ(first, b.ScoreBatch(pairs)) << threads << " threads";
  }
  SetNumThreads(before);
}

// A traced batch shows its stages: the item extractor rows and the rating
// head each get a span and a latency histogram sample.
TEST(ScorerTest, TracedBatchRecordsStageSpans) {
  ServeWorld& w = World();
  const bool tracing = obs::TracingEnabled();
  const bool metrics = obs::MetricsEnabled();
  obs::EnableTracing(true);
  obs::EnableMetrics(true);
  obs::ClearTrace();
  const char* const stages[] = {"serve.cold_docs", "serve.item_rows",
                                "serve.head"};
  std::vector<int64_t> before;
  for (const char* stage : stages) {
    before.push_back(obs::MetricsRegistry::Global()
                         .GetHistogram(std::string(stage) + "_ns",
                                       obs::Histogram::LatencyBoundsNs())
                         ->Count());
  }
  // A source-only user is admitted online, so Algorithm 1 runs.
  std::vector<ScoreRequest> pairs = ReferencePairs();
  pairs.push_back({w.source_only_user, w.cross.target().items().front()});
  Scorer scorer(w.snapshot, 256);
  scorer.ScoreBatch(pairs);
  const std::vector<obs::ExportedSpan> spans = obs::ExportSpans();
  obs::EnableTracing(tracing);
  obs::EnableMetrics(metrics);

  for (size_t s = 0; s < std::size(stages); ++s) {
    const std::string stage = stages[s];
    EXPECT_TRUE(std::any_of(spans.begin(), spans.end(),
                            [&](const obs::ExportedSpan& span) {
                              return stage == span.name;
                            }))
        << stage;
    EXPECT_GT(obs::MetricsRegistry::Global()
                  .GetHistogram(stage + "_ns",
                                obs::Histogram::LatencyBoundsNs())
                  ->Count(),
              before[s])
        << stage;
  }
  // Algorithm 1 and the softmax readout each trace inside their stage.
  const std::pair<const char*, const char*> nested[] = {
      {"aux.generate", "serve.cold_docs"}, {"scoring.softmax", "serve.head"}};
  for (const auto& [inner, outer] : nested) {
    int found = 0;
    for (const obs::ExportedSpan& in : spans) {
      if (std::string(inner) != in.name) continue;
      ++found;
      EXPECT_TRUE(std::any_of(spans.begin(), spans.end(),
                              [&](const obs::ExportedSpan& out) {
                                return std::string(outer) == out.name &&
                                       out.tid == in.tid &&
                                       out.start_ns <= in.start_ns &&
                                       in.end_ns <= out.end_ns;
                              }))
          << inner << " outside " << outer;
    }
    EXPECT_GT(found, 0) << inner;
  }
}

TEST(ScorerTest, UnknownUserWithoutRecordsGetsGlobalMean) {
  ServeWorld& w = World();
  Scorer scorer(w.snapshot, 16);
  const int no_such_user = 1000000;
  const int item = w.cross.target().items().front();
  EXPECT_EQ(w.snapshot->global_mean_rating(), scorer.Score(no_such_user, item));
  // The trainer's PredictRating falls back identically.
  EXPECT_EQ(w.trainer->PredictRating(no_such_user, item),
            scorer.Score(no_such_user, item));
}

TEST(ScorerTest, ColdAdmissionIsDeterministic) {
  ServeWorld& w = World();
  const int user = w.source_only_user;
  const int item_a = w.cross.target().items()[0];
  const int item_b = w.cross.target().items()[1];

  Scorer first(w.snapshot, 16);
  const float score_a = first.Score(user, item_a);
  const float score_b = first.Score(user, item_b);
  EXPECT_GE(score_a, 1.0f);
  EXPECT_LE(score_a, 5.0f);

  // A fresh scorer (empty cache) admits the same user again: the admission
  // RNG is seeded from (snapshot version, user id), so the regenerated
  // documents — and every score — are identical.
  Scorer second(w.snapshot, 16);
  EXPECT_EQ(score_b, second.Score(user, item_b));
  EXPECT_EQ(score_a, second.Score(user, item_a));

  // The docs themselves are reproducible too.
  EXPECT_EQ(w.snapshot->BuildColdUserDocs(user),
            w.snapshot->BuildColdUserDocs(user));
}

TEST(ModelSnapshotTest, ColdUserDocsMatchStringPath) {
  // Online admission assembles documents from the corpus's token table. The
  // string path it replaced — tokenize every borrowed review again — must
  // give the same vocabulary and, draw for draw, the same documents for
  // every source-only user.
  ServeWorld& w = World();
  const ModelSnapshot& snap = *w.snapshot;
  const text::Vocabulary vocab = core::string_documents::Vocabulary(
      w.cross, w.split.train_users, w.config.text_field,
      w.config.min_vocab_count);
  ASSERT_EQ(snap.vocabulary().size(), vocab.size());
  for (int id = 0; id < vocab.size(); ++id) {
    ASSERT_EQ(snap.vocabulary().TokenOf(id), vocab.TokenOf(id)) << id;
  }
  int checked = 0;
  for (int u : w.cross.source().users()) {
    if (w.cross.target().HasUser(u)) continue;
    Rng rng(core::AuxReviewGenerator::PerUserSeed(snap.version(), u));
    ASSERT_EQ(snap.BuildColdUserDocs(u),
              core::string_documents::ColdStartDocs(
                  snap.aux_generator(), snap.config(), vocab, u, &rng))
        << "source-only user " << u;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(UserEmbeddingCacheTest, LruEvictionAndHitAccounting) {
  auto entry = [] {
    auto e = std::make_shared<UserEntry>();
    e->rep_rows = {{1.0f}};
    return e;
  };
  UserEmbeddingCache cache(2);
  const uint64_t v = 99;
  EXPECT_EQ(nullptr, cache.Get(v, 1));  // miss
  cache.Put(v, 1, entry());
  cache.Put(v, 2, entry());
  EXPECT_EQ(2u, cache.size());
  EXPECT_NE(nullptr, cache.Get(v, 1));  // hit; 1 becomes most-recent
  cache.Put(v, 3, entry());             // evicts 2 (LRU)
  EXPECT_EQ(2u, cache.size());
  EXPECT_EQ(nullptr, cache.Get(v, 2));  // miss: evicted
  EXPECT_NE(nullptr, cache.Get(v, 1));
  EXPECT_NE(nullptr, cache.Get(v, 3));
  // A different snapshot version never hits the old entries.
  EXPECT_EQ(nullptr, cache.Get(v + 1, 1));

  EXPECT_EQ(3, cache.hits());
  EXPECT_EQ(3, cache.misses());
  EXPECT_EQ(1, cache.evictions());
}

TEST(ScorerTest, CacheHitsAccountedAcrossRequests) {
  ServeWorld& w = World();
  Scorer scorer(w.snapshot, 256);
  const int user = w.split.test_users[0];
  const std::vector<int>& items = w.cross.target().items();
  scorer.Score(user, items[0]);  // admission: one miss
  scorer.Score(user, items[1]);  // cached representation: one hit
  scorer.Score(user, items[2]);
  EXPECT_EQ(1, scorer.cache().misses());
  EXPECT_EQ(2, scorer.cache().hits());
  EXPECT_EQ(1u, scorer.cache().size());
}

TEST(ScorerTest, EvictionForcesBitIdenticalRecompute) {
  ServeWorld& w = World();
  const int item = w.cross.target().items()[0];
  Scorer scorer(w.snapshot, /*cache_capacity=*/1);
  const int user_a = w.split.test_users[0];
  const int user_b = w.split.test_users[1];
  const float first = scorer.Score(user_a, item);
  scorer.Score(user_b, item);  // capacity 1: evicts user_a
  EXPECT_EQ(1, scorer.cache().evictions());
  // Recomputed-after-eviction representation scores identically.
  EXPECT_EQ(first, scorer.Score(user_a, item));
}

TEST(InferenceServerTest, CoalescesBurstIntoFewBatches) {
  FaultGuard guard;
  ServeWorld& w = World();
  InferenceServer::Options options;
  options.executors = 1;
  options.max_batch = 8;
  InferenceServer server(w.snapshot, options);

  std::vector<ScoreRequest> pairs = ReferencePairs();
  ASSERT_GT(pairs.size(), static_cast<size_t>(options.max_batch));
  // The burst queues behind a stalled batch of one (300 ms: far above the
  // enqueue loop's cost), so the executor finds all of it waiting.
  std::future<ScoreResult> stalled = StallExecutor(&server, pairs[0], 300);
  std::vector<std::future<ScoreResult>> futures;
  for (const ScoreRequest& p : pairs) {
    futures.push_back(server.ScoreAsync(p.user, p.item));
  }
  EXPECT_EQ(RequestStatus::kOk, stalled.get().status);
  std::vector<float> got;
  for (auto& f : futures) {
    const ScoreResult r = f.get();
    EXPECT_EQ(RequestStatus::kOk, r.status);
    EXPECT_EQ(w.snapshot->version(), r.snapshot_version);
    got.push_back(r.score);
  }
  server.Shutdown();

  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(static_cast<int64_t>(pairs.size() + 1), stats.requests_served);
  // The stalled batch, then the backlog in full batches of max_batch.
  const int64_t full_batches =
      (static_cast<int64_t>(pairs.size()) + options.max_batch - 1) /
      options.max_batch;
  EXPECT_EQ(1 + full_batches, stats.batches_dispatched);

  Scorer reference(w.snapshot, 256);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(reference.Score(pairs[i].user, pairs[i].item), got[i])
        << "pair " << i;
  }
}

TEST(InferenceServerTest, TracedBatchRecordsQueueWaitSpan) {
  FaultGuard guard;
  ServeWorld& w = World();
  const bool tracing = obs::TracingEnabled();
  const bool metrics = obs::MetricsEnabled();
  obs::EnableTracing(true);
  obs::EnableMetrics(true);
  obs::ClearTrace();
  obs::Histogram* waits = obs::MetricsRegistry::Global().GetHistogram(
      "serve.queue_wait_ns", obs::Histogram::LatencyBoundsNs());
  const int64_t waits_before = waits->Count();
  InferenceServer::Options options;
  options.executors = 1;
  options.max_batch = 8;
  InferenceServer server(w.snapshot, options);

  // A batch of one, then a backlog of three queued behind its 50 ms stall.
  const std::vector<ScoreRequest> pairs = ReferencePairs();
  ASSERT_GE(pairs.size(), 4u);
  std::future<ScoreResult> stalled = StallExecutor(&server, pairs[0], 50);
  const int64_t enqueue_from = obs::internal::TraceNowNs();
  std::vector<std::future<ScoreResult>> backlog;
  for (size_t i = 1; i < 4; ++i) {
    backlog.push_back(server.ScoreAsync(pairs[i].user, pairs[i].item));
  }
  const int64_t enqueue_to = obs::internal::TraceNowNs();
  EXPECT_EQ(RequestStatus::kOk, stalled.get().status);
  for (auto& f : backlog) EXPECT_EQ(RequestStatus::kOk, f.get().status);
  const int64_t resolved = obs::internal::TraceNowNs();
  server.Shutdown();
  std::vector<obs::ExportedSpan> spans = obs::ExportSpans();
  obs::EnableTracing(tracing);
  obs::EnableMetrics(metrics);

  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [](const obs::ExportedSpan& span) {
                               return std::string("serve.queue_wait") !=
                                      span.name;
                             }),
              spans.end());
  // One span per dispatched batch, one histogram sample per request.
  ASSERT_EQ(2u, spans.size());
  EXPECT_EQ(2, server.stats().batches_dispatched);
  EXPECT_EQ(waits_before + 4, waits->Count());
  // Each span ends when its batch leaves the queue: the stalled batch's
  // before its 50 ms sleep, the backlog's after it. The backlog's span
  // starts at its oldest request's enqueue, on the trace clock.
  const obs::ExportedSpan& lone = spans[0];
  const obs::ExportedSpan& queued = spans[1];
  EXPECT_LT(lone.end_ns - lone.start_ns, 50'000'000);
  EXPECT_GE(queued.start_ns, enqueue_from);
  EXPECT_LE(queued.start_ns, enqueue_to);
  EXPECT_GE(queued.end_ns, lone.end_ns + 50'000'000);
  EXPECT_LE(queued.end_ns, resolved);
}

TEST(InferenceServerTest, ConcurrentSubmittersGetBitIdenticalScores) {
  ServeWorld& w = World();
  std::vector<ScoreRequest> pairs = ReferencePairs();

  // Reference values, computed single-threaded BEFORE the server exists —
  // the baseline the concurrent results must reproduce bit-for-bit.
  std::vector<float> expected;
  {
    Scorer reference(w.snapshot, 256);
    for (const ScoreRequest& p : pairs) {
      expected.push_back(reference.Score(p.user, p.item));
    }
  }

  InferenceServer::Options options;
  options.max_batch = 8;
  options.cache_capacity = 8;  // small: forces evictions under load
  InferenceServer server(w.snapshot, options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<float>> results(
      kThreads, std::vector<float>(pairs.size() * kRounds, 0.0f));
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the pairs at a different stride so concurrent
        // batches mix users and items.
        for (size_t i = 0; i < pairs.size(); ++i) {
          const size_t idx = (i * (t + 1) + round) % pairs.size();
          results[t][round * pairs.size() + i] =
              server.Score(pairs[idx].user, pairs[idx].item);
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  server.Shutdown();

  // Blocking submitters never fill the queue, so every request is served
  // on the full tier.
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(static_cast<int64_t>(kThreads * kRounds * pairs.size()),
            stats.requests_served);
  EXPECT_EQ(stats.requests_served, stats.served_full);
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        const size_t idx = (i * (t + 1) + round) % pairs.size();
        ASSERT_EQ(expected[idx], results[t][round * pairs.size() + i])
            << "thread " << t << " round " << round << " pair " << idx;
      }
    }
  }
}

TEST(InferenceServerTest, ShutdownDrainsQueuedRequests) {
  FaultGuard guard;
  ServeWorld& w = World();
  InferenceServer::Options options;
  options.executors = 1;
  options.max_batch = 4;
  auto server = std::make_unique<InferenceServer>(w.snapshot, options);
  const std::vector<ScoreRequest> pairs = ReferencePairs();
  ASSERT_GE(pairs.size(), 6u);
  // Shutdown begins while the six requests still wait behind a stalled
  // batch (200 ms), so it has to drain them.
  std::vector<std::future<ScoreResult>> futures;
  futures.push_back(StallExecutor(server.get(), pairs[0], 200));
  for (size_t i = 0; i < 6; ++i) {
    futures.push_back(server->ScoreAsync(pairs[i].user, pairs[i].item));
  }
  server->Shutdown();  // must score everything still queued
  for (auto& f : futures) {
    const ScoreResult r = f.get();
    EXPECT_EQ(RequestStatus::kOk, r.status);
    EXPECT_GE(r.score, 1.0f);
    EXPECT_LE(r.score, 5.0f);
  }
}

TEST(ScorerTest, HybridInferenceMatchesTrainer) {
  // Separate, smaller world: the shared one trains without hybrid readouts,
  // and the hybrid rating head must be trained on hybrid inputs.
  data::SyntheticConfig world_config;
  world_config.num_users = 40;
  world_config.items_per_domain = 20;
  world_config.mean_reviews_per_user = 4;
  world_config.seed = 33;
  data::SyntheticWorld world(world_config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(9);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  core::OmniMatchConfig config = TinyModel();
  config.epochs = 1;
  config.use_hybrid_inference = true;
  core::OmniMatchTrainer trainer(config, &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  const std::string path = testing_util::TestTempDir() + "/serve_hybrid.omck";
  ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());

  Result<std::shared_ptr<const ModelSnapshot>> loaded =
      ModelSnapshot::Load(config, &cross, split, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Scorer scorer(loaded.value(), 64);
  const std::vector<int>& items = cross.target().items();
  for (size_t i = 0; i < std::min<size_t>(3, split.test_users.size()); ++i) {
    const int user = split.test_users[i];
    const int item = items[i % items.size()];
    EXPECT_EQ(trainer.PredictRating(user, item), scorer.Score(user, item))
        << "user " << user << " item " << item;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace omnimatch
