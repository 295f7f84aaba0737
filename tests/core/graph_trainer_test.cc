// End-to-end contract of --graph_exec: recorded-graph training must be
// bit-identical to eager training — every epoch loss, every parameter,
// every evaluation metric — at every thread count, with the health guard
// on, and across a kill-and-resume splice.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace core {
namespace {

data::SyntheticConfig SmallWorldConfig() {
  data::SyntheticConfig c;
  c.num_users = 60;
  c.items_per_domain = 30;
  c.mean_reviews_per_user = 5;
  c.seed = 21;
  return c;
}

OmniMatchConfig SmallTrainConfig(int num_threads, bool graph_exec) {
  OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 8;
  config.projection_dim = 4;
  config.doc_len = 16;
  config.item_doc_len = 16;
  config.batch_size = 16;
  config.epochs = 2;
  config.aux_eval_samples = 2;
  config.seed = 31;
  config.num_threads = num_threads;
  config.graph_exec = graph_exec;
  return config;
}

struct RunResult {
  std::vector<double> losses;
  std::vector<std::vector<float>> params;
  double rmse = 0.0;
  nn::graph::GraphExecutor::Stats stats;
};

RunResult TrainOnce(const data::CrossDomainDataset& cross,
                    const data::ColdStartSplit& split, int num_threads,
                    bool graph_exec) {
  OmniMatchTrainer trainer(SmallTrainConfig(num_threads, graph_exec), &cross,
                           split);
  EXPECT_TRUE(trainer.Prepare().ok());
  TrainStats stats = trainer.Train();
  RunResult result;
  result.losses = stats.total_loss;
  for (const nn::Tensor& p : trainer.model()->Parameters()) {
    result.params.push_back(p.data());
  }
  result.rmse = trainer.Evaluate(trainer.split().test_users).rmse;
  if (trainer.graph_executor() != nullptr) {
    result.stats = trainer.graph_executor()->stats();
  }
  return result;
}

void ExpectBitIdentical(const RunResult& eager, const RunResult& graph) {
  ASSERT_FALSE(eager.losses.empty());
  ASSERT_EQ(eager.losses.size(), graph.losses.size());
  for (size_t e = 0; e < eager.losses.size(); ++e) {
    EXPECT_EQ(eager.losses[e], graph.losses[e]) << "epoch " << e;
  }
  ASSERT_EQ(eager.params.size(), graph.params.size());
  for (size_t p = 0; p < eager.params.size(); ++p) {
    EXPECT_EQ(eager.params[p], graph.params[p]) << "parameter " << p;
  }
  EXPECT_EQ(eager.rmse, graph.rmse);
}

TEST(GraphTrainerTest, RecordedTrainingBitIdenticalToEagerAcrossThreads) {
  data::SyntheticWorld world(SmallWorldConfig());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);

  RunResult eager = TrainOnce(cross, split, 1, /*graph_exec=*/false);
  for (int threads : {1, 2, 4}) {
    RunResult graph = TrainOnce(cross, split, threads, /*graph_exec=*/true);
    ExpectBitIdentical(eager, graph);

    // The Table 2 config trains on full batches plus one partial tail
    // batch per epoch: one compiled plan per distinct batch size, every
    // step after the two recordings served from a plan.
    EXPECT_GE(graph.stats.plans, 1) << threads << " threads";
    EXPECT_LE(graph.stats.plans, 2) << threads << " threads";
    EXPECT_EQ(graph.stats.record_steps, graph.stats.plans);
    EXPECT_GT(graph.stats.replay_steps, 0) << threads << " threads";
    EXPECT_EQ(graph.stats.fallback_signatures, 0) << threads << " threads";
    EXPECT_GT(graph.stats.arena_bytes_max, 0);
  }
  SetNumThreads(0);
}

// Replayed steps allocate no tensor nodes. Every eager step allocates the
// same number (the op stream does not depend on the batch's shape), and a
// recording step runs eagerly, so a recorded run's nn.tensor_node_allocs
// must equal its recording steps' eager share exactly.
TEST(GraphTrainerTest, ReplayedStepsAllocateNoTensorNodes) {
  data::SyntheticWorld world(SmallWorldConfig());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  const obs::Counter* node_allocs =
      obs::MetricsRegistry::Global().GetCounter("nn.tensor_node_allocs");

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    int64_t eager_allocs_per_step = 0;
    for (bool graph_exec : {false, true}) {
      OmniMatchConfig config = SmallTrainConfig(threads, graph_exec);
      // Training steps only: the per-epoch validation forward runs eagerly
      // in both modes.
      config.select_best_epoch = false;
      OmniMatchTrainer trainer(config, &cross, split);
      ASSERT_TRUE(trainer.Prepare().ok());
      const int64_t before = node_allocs->Value();
      const TrainStats stats = trainer.Train();
      const int64_t allocs = node_allocs->Value() - before;
      ASSERT_GT(stats.steps, 0);
      if (!graph_exec) {
        EXPECT_EQ(0, allocs % stats.steps) << allocs << " allocs";
        eager_allocs_per_step = allocs / stats.steps;
        EXPECT_GT(eager_allocs_per_step, 0);
        continue;
      }
      const nn::graph::GraphExecutor::Stats& gs =
          trainer.graph_executor()->stats();
      ASSERT_GT(gs.replay_steps, 0);
      const int64_t replay_allocs =
          allocs - eager_allocs_per_step * gs.record_steps;
      EXPECT_EQ(0, replay_allocs)
          << "over " << gs.replay_steps << " replayed steps";
    }
  }
  SetNumThreads(0);
}

// Evaluation and serving never replay, so Train() releases its compiled
// plans (and their arenas) when it returns; the counters stay.
TEST(GraphTrainerTest, TrainReleasesCompiledPlans) {
  data::SyntheticWorld world(SmallWorldConfig());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  OmniMatchTrainer trainer(SmallTrainConfig(2, /*graph_exec=*/true), &cross,
                           split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  const nn::graph::GraphExecutor* exec = trainer.graph_executor();
  ASSERT_NE(exec, nullptr);
  EXPECT_GE(exec->stats().plans, 1);
  EXPECT_GT(exec->stats().replay_steps, 0);
  EXPECT_EQ(exec->plan_count(), 0u);
  SetNumThreads(0);
}

// Kill-and-resume under graph execution: a recorded-mode run killed after
// epoch 1 and resumed from its checkpoint (plans recompile from scratch in
// the fresh process) must match the uninterrupted EAGER run bit-for-bit.
// This also proves checkpoints cross modes: the resumed trainer replays
// compiled plans while the reference never left eager.
TEST(GraphTrainerTest, RecordedKillAndResumeMatchesEagerBitForBit) {
  data::SyntheticWorld world(SmallWorldConfig());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  std::string dir = testing_util::TestTempDir() + "/graph_resume";
  std::filesystem::remove_all(dir);

  OmniMatchTrainer eager(SmallTrainConfig(1, /*graph_exec=*/false), &cross,
                         split);
  ASSERT_TRUE(eager.Prepare().ok());
  TrainStats eager_stats = eager.Train();

  OmniMatchConfig killed_config = SmallTrainConfig(1, /*graph_exec=*/true);
  killed_config.epochs = 1;
  killed_config.checkpoint_every = 1;
  killed_config.checkpoint_dir = dir;
  OmniMatchTrainer killed(killed_config, &cross, split);
  ASSERT_TRUE(killed.Prepare().ok());
  killed.Train();

  OmniMatchTrainer resumed(SmallTrainConfig(1, /*graph_exec=*/true), &cross,
                           split);
  ASSERT_TRUE(resumed.Prepare().ok());
  Result<std::string> latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  ASSERT_TRUE(resumed.LoadCheckpoint(latest.value()).ok());
  EXPECT_EQ(resumed.epochs_completed(), 1);
  TrainStats resumed_stats = resumed.Train();

  EXPECT_EQ(resumed_stats.steps, eager_stats.steps);
  ASSERT_EQ(resumed_stats.total_loss.size(), eager_stats.total_loss.size());
  for (size_t e = 0; e < eager_stats.total_loss.size(); ++e) {
    EXPECT_EQ(resumed_stats.total_loss[e], eager_stats.total_loss[e])
        << "epoch " << e;
  }
  EXPECT_EQ(resumed_stats.validation_rmse, eager_stats.validation_rmse);

  std::vector<nn::Tensor> a = eager.model()->Parameters();
  std::vector<nn::Tensor> b = resumed.model()->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].data(), b[i].data()) << "parameter " << i;
  }
  EXPECT_EQ(eager.Evaluate(split.test_users).rmse,
            resumed.Evaluate(split.test_users).rmse);

  std::filesystem::remove_all(dir);
  SetNumThreads(0);
}

}  // namespace
}  // namespace core
}  // namespace omnimatch
