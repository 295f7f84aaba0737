// End-to-end tests of the self-healing training loop: deterministic faults
// armed against the global injector, detected by the TrainingGuard, and
// repaired by rollback + learning-rate backoff.

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/io.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "nn/health.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace core {
namespace {

data::SyntheticConfig TinyWorld() {
  data::SyntheticConfig c;
  c.num_users = 60;
  c.items_per_domain = 30;
  c.mean_reviews_per_user = 5;
  c.seed = 21;
  return c;
}

OmniMatchConfig TinyModel() {
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
  config.seed = 31;
  config.select_best_epoch = false;
  return config;
}

struct Fixture {
  Fixture() : world(TinyWorld()), cross(world.MakePair("Books", "Movies")) {
    Rng rng(5);
    split = data::MakeColdStartSplit(cross, &rng);
  }
  data::SyntheticWorld world;
  data::CrossDomainDataset cross;
  data::ColdStartSplit split;
};

/// Arms the GLOBAL injector (the one the trainer consults) and guarantees a
/// clean slate before and after each test.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }

  void Arm(const std::string& spec) {
    ASSERT_TRUE(FaultInjector::Global().ArmFromString(spec).ok());
  }
};

/// Runs a full Prepare+Train under the currently armed faults.
TrainStats RunTraining(const Fixture& f, const OmniMatchConfig& config,
                       std::vector<std::vector<float>>* final_params =
                           nullptr) {
  OmniMatchTrainer trainer(config, &f.cross, f.split);
  EXPECT_TRUE(trainer.Prepare().ok());
  TrainStats stats = trainer.Train();
  if (final_params != nullptr) {
    final_params->clear();
    for (const nn::Tensor& p : trainer.model()->Parameters()) {
      final_params->push_back(p.data());
    }
  }
  return stats;
}

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

TEST_F(FaultInjectionTest, NanGradientDetectedWithinOneStepAndRecovered) {
  Fixture f;
  Arm("grad@2");
  std::vector<std::vector<float>> params;
  TrainStats stats = RunTraining(f, TinyModel(), &params);

  // Detected at exactly the faulted step, recovered, and training finished.
  ASSERT_EQ(stats.recoveries, 1);
  ASSERT_EQ(stats.recovery_events.size(), 1u);
  const RecoveryEvent& e = stats.recovery_events[0];
  EXPECT_EQ(e.step, 2);
  EXPECT_EQ(e.reason, FaultReason::kNonFiniteGrad);
  EXPECT_LT(e.lr_after, e.lr_before);
  EXPECT_FALSE(stats.guard_gave_up);
  EXPECT_EQ(FaultInjector::Global().fired(), 1);

  // The run completed every epoch with finite losses and finite weights.
  EXPECT_EQ(stats.total_loss.size(), 2u);
  EXPECT_TRUE(AllFinite(stats.total_loss));
  for (const auto& p : params) {
    for (float v : p) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_F(FaultInjectionTest, RecoveryIsBitIdenticalAcrossRuns) {
  Fixture f;
  OmniMatchConfig config = TinyModel();

  Arm("grad@3:seed=9");
  std::vector<std::vector<float>> params_a;
  TrainStats a = RunTraining(f, config, &params_a);

  FaultInjector::Global().Disarm();
  Arm("grad@3:seed=9");
  std::vector<std::vector<float>> params_b;
  TrainStats b = RunTraining(f, config, &params_b);

  // Same seed, same fault: the recovered trajectories are IDENTICAL, down
  // to the last bit of every weight.
  ASSERT_EQ(a.recoveries, 1);
  ASSERT_EQ(b.recoveries, 1);
  ASSERT_EQ(a.total_loss.size(), b.total_loss.size());
  for (size_t i = 0; i < a.total_loss.size(); ++i) {
    EXPECT_EQ(a.total_loss[i], b.total_loss[i]) << "epoch " << i;
  }
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_EQ(params_a[i], params_b[i]) << "tensor " << i;
  }
}

TEST_F(FaultInjectionTest, LossSpikeDetectedAndRolledBack) {
  Fixture f;
  OmniMatchConfig config = TinyModel();
  config.guard_warmup_steps = 3;  // arm the EMA quickly
  Arm("loss@5:mag=10");
  TrainStats stats = RunTraining(f, config);

  ASSERT_EQ(stats.recoveries, 1);
  const RecoveryEvent& e = stats.recovery_events[0];
  EXPECT_EQ(e.step, 5);
  EXPECT_EQ(e.reason, FaultReason::kLossSpike);
  // The 10x-spiked loss was observed above the spike threshold.
  EXPECT_GT(e.observed, e.threshold);
  EXPECT_GT(e.threshold, 0.0);
  EXPECT_FALSE(stats.guard_gave_up);
  // The spike never entered the loss trace: every epoch mean stays sane.
  EXPECT_TRUE(AllFinite(stats.total_loss));
  EXPECT_LT(stats.total_loss[0], e.observed);
}

TEST_F(FaultInjectionTest, CorruptedParameterDetectedAndRestored) {
  Fixture f;
  Arm("param@2:mag=inf");
  std::vector<std::vector<float>> params;
  TrainStats stats = RunTraining(f, TinyModel(), &params);

  ASSERT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.recovery_events[0].reason, FaultReason::kNonFiniteParam);
  EXPECT_EQ(stats.recovery_events[0].step, 2);
  for (const auto& p : params) {
    for (float v : p) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_F(FaultInjectionTest, RetryBudgetExhaustionStopsOnLastGoodState) {
  Fixture f;
  OmniMatchConfig config = TinyModel();
  config.max_recoveries = 2;
  // Fires on EVERY step from 1 on: recovery cannot outrun it.
  Arm("grad@1:count=1000000");
  std::vector<std::vector<float>> params;
  TrainStats stats = RunTraining(f, config, &params);

  EXPECT_TRUE(stats.guard_gave_up);
  EXPECT_EQ(stats.recoveries, 2);
  EXPECT_EQ(stats.recovery_events.size(), 2u);
  // Despite the unrecoverable fault storm, the final state is the last
  // GOOD one: every weight finite.
  for (const auto& p : params) {
    for (float v : p) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_F(FaultInjectionTest, CheckpointWriteFaultDoesNotKillTraining) {
  Fixture f;
  OmniMatchConfig config = TinyModel();
  config.checkpoint_every = 1;
  config.checkpoint_dir = testing_util::TestTempDir() + "/ckpt_write_fault";
  std::filesystem::remove_all(config.checkpoint_dir);
  Arm("checkpoint_write@0");  // first save fails

  TrainStats stats = RunTraining(f, config);
  EXPECT_EQ(stats.total_loss.size(), 2u);  // training ran to completion
  // Epoch 1's save was the injected failure; epoch 2's save succeeded.
  EXPECT_FALSE(std::filesystem::exists(config.checkpoint_dir +
                                       "/checkpoint_epoch1.omck"));
  EXPECT_TRUE(std::filesystem::exists(config.checkpoint_dir +
                                      "/checkpoint_epoch2.omck"));
  std::filesystem::remove_all(config.checkpoint_dir);
}

TEST_F(FaultInjectionTest, GuardedRunMatchesUnguardedRunWithoutFaults) {
  Fixture f;
  OmniMatchConfig guarded_config = TinyModel();
  guarded_config.guard_enabled = true;
  OmniMatchConfig unguarded_config = TinyModel();
  unguarded_config.guard_enabled = false;

  std::vector<std::vector<float>> guarded, unguarded;
  TrainStats a = RunTraining(f, guarded_config, &guarded);
  TrainStats b = RunTraining(f, unguarded_config, &unguarded);

  // The guard only observes on a healthy run: trajectories are bit-equal.
  EXPECT_EQ(a.recoveries, 0);
  ASSERT_EQ(a.total_loss.size(), b.total_loss.size());
  for (size_t i = 0; i < a.total_loss.size(); ++i) {
    EXPECT_EQ(a.total_loss[i], b.total_loss[i]) << "epoch " << i;
  }
  ASSERT_EQ(guarded.size(), unguarded.size());
  for (size_t i = 0; i < guarded.size(); ++i) {
    ASSERT_EQ(guarded[i], unguarded[i]) << "tensor " << i;
  }
}

TEST_F(FaultInjectionTest, GuardStateSurvivesCheckpointResume) {
  Fixture f;
  OmniMatchConfig config = TinyModel();
  config.checkpoint_every = 1;
  config.checkpoint_dir = testing_util::TestTempDir() + "/ckpt_guard_resume";
  std::filesystem::remove_all(config.checkpoint_dir);

  // Full run: a NaN gradient at step 2 (epoch 1) forces a recovery with LR
  // backoff, then checkpoints at every epoch.
  Arm("grad@2");
  std::vector<std::vector<float>> full_params;
  TrainStats full = RunTraining(f, config, &full_params);
  ASSERT_EQ(full.recoveries, 1);
  ASSERT_EQ(full.total_loss.size(), 2u);

  // Resume from the epoch-1 checkpoint (written AFTER the recovery) with no
  // fault armed, and run the remaining epoch.
  FaultInjector::Global().Disarm();
  OmniMatchTrainer resumed(config, &f.cross, f.split);
  ASSERT_TRUE(resumed.Prepare().ok());
  ASSERT_TRUE(resumed
                  .LoadCheckpoint(config.checkpoint_dir +
                                  "/checkpoint_epoch1.omck")
                  .ok());
  TrainStats stats = resumed.Train();

  // The recovery trace traveled inside the checkpoint...
  ASSERT_EQ(stats.recoveries, 1);
  ASSERT_EQ(stats.recovery_events.size(), 1u);
  EXPECT_EQ(stats.recovery_events[0].step, full.recovery_events[0].step);
  EXPECT_EQ(stats.recovery_events[0].lr_after,
            full.recovery_events[0].lr_after);
  // ...and so did the backed-off LR and guard EMA: the resumed epoch is
  // bit-identical to the uninterrupted run's second epoch.
  ASSERT_EQ(stats.total_loss.size(), 2u);
  EXPECT_EQ(stats.total_loss[1], full.total_loss[1]);
  std::vector<std::vector<float>> resumed_params;
  for (const nn::Tensor& p : resumed.model()->Parameters()) {
    resumed_params.push_back(p.data());
  }
  ASSERT_EQ(resumed_params.size(), full_params.size());
  for (size_t i = 0; i < resumed_params.size(); ++i) {
    ASSERT_EQ(resumed_params[i], full_params[i]) << "tensor " << i;
  }
  std::filesystem::remove_all(config.checkpoint_dir);
}

TEST_F(FaultInjectionTest, EnvVarSpecGrammarMatchesFlagGrammar) {
  // The OMNIMATCH_FAULTS env var goes through the same parser as --faults;
  // spot-check the documented examples against a local injector.
  FaultInjector local;
  EXPECT_TRUE(local.ArmFromString("grad@5").ok());
  EXPECT_TRUE(local.ArmFromString("loss@3:mag=10").ok());
  EXPECT_TRUE(local.ArmFromString("loss@3:mag=100,count=10").ok());
  EXPECT_TRUE(local.ArmFromString("param@7:mag=inf,seed=42").ok());
  EXPECT_TRUE(local.ArmFromString("checkpoint_write@0").ok());
}

}  // namespace
}  // namespace core
}  // namespace omnimatch
