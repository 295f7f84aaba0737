#include "core/trainer.h"

#include <gtest/gtest.h>

#include "data/splits.h"
#include "data/synthetic.h"

namespace omnimatch {
namespace core {
namespace {

data::SyntheticConfig TinyWorldConfig() {
  data::SyntheticConfig c;
  c.num_users = 60;
  c.items_per_domain = 30;
  c.mean_reviews_per_user = 5;
  c.seed = 21;
  return c;
}

OmniMatchConfig TinyTrainConfig() {
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
  return config;
}

struct Fixture {
  Fixture()
      : world(TinyWorldConfig()),
        cross(world.MakePair("Books", "Movies")) {
    Rng rng(5);
    split = data::MakeColdStartSplit(cross, &rng);
  }
  data::SyntheticWorld world;
  data::CrossDomainDataset cross;
  data::ColdStartSplit split;
};

TEST(TrainerTest, PrepareBuildsVocabulary) {
  Fixture f;
  OmniMatchTrainer trainer(TinyTrainConfig(), &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  EXPECT_GT(trainer.vocabulary().size(), 50);
  EXPECT_NE(trainer.aux_generator(), nullptr);
}

TEST(TrainerTest, PrepareRejectsInvalidConfig) {
  Fixture f;
  OmniMatchConfig config = TinyTrainConfig();
  config.dropout = 1.5f;
  OmniMatchTrainer trainer(config, &f.cross, f.split);
  Status status = trainer.Prepare();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, PrepareRejectsEmptyTrainSet) {
  Fixture f;
  data::ColdStartSplit empty = f.split;
  empty.train_users.clear();
  OmniMatchTrainer trainer(TinyTrainConfig(), &f.cross, empty);
  Status status = trainer.Prepare();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(TrainerTest, TrainProducesPerEpochLosses) {
  Fixture f;
  OmniMatchTrainer trainer(TinyTrainConfig(), &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  TrainStats stats = trainer.Train();
  ASSERT_EQ(stats.total_loss.size(), 2u);
  EXPECT_GT(stats.steps, 0);
  EXPECT_GT(stats.train_seconds, 0.0);
  EXPECT_EQ(stats.validation_rmse.size(), 2u);
  EXPECT_GE(stats.best_epoch, 0);
  for (double l : stats.total_loss) EXPECT_GT(l, 0.0);
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  Fixture f;
  OmniMatchConfig config = TinyTrainConfig();
  config.epochs = 6;
  config.select_best_epoch = false;
  OmniMatchTrainer trainer(config, &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  TrainStats stats = trainer.Train();
  EXPECT_LT(stats.total_loss.back(), stats.total_loss.front());
}

TEST(TrainerTest, EvaluateReturnsSaneMetrics) {
  Fixture f;
  OmniMatchTrainer trainer(TinyTrainConfig(), &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  eval::Metrics m = trainer.Evaluate(f.split.test_users);
  EXPECT_GT(m.count, 0);
  EXPECT_GT(m.rmse, 0.0);
  EXPECT_LT(m.rmse, 4.0);  // worst possible error on a 1..5 scale
  EXPECT_LE(m.mae, m.rmse);
}

TEST(TrainerTest, PredictionsWithinRatingScale) {
  Fixture f;
  OmniMatchTrainer trainer(TinyTrainConfig(), &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  for (int u : f.split.test_users) {
    for (int idx : f.cross.target().RecordsOfUser(u)) {
      float pred =
          trainer.PredictRating(u, f.cross.target().ReviewItem(idx));
      EXPECT_GE(pred, 1.0f);
      EXPECT_LE(pred, 5.0f);
    }
  }
}

TEST(TrainerTest, UnknownUserFallsBackToGlobalMean) {
  Fixture f;
  OmniMatchTrainer trainer(TinyTrainConfig(), &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  float pred = trainer.PredictRating(/*user_id=*/987654, /*item_id=*/1);
  EXPECT_FLOAT_EQ(pred, f.cross.target().GlobalMeanRating());
}

TEST(TrainerTest, DeterministicAcrossRunsWithSameSeed) {
  Fixture f;
  OmniMatchConfig config = TinyTrainConfig();
  OmniMatchTrainer a(config, &f.cross, f.split);
  OmniMatchTrainer b(config, &f.cross, f.split);
  ASSERT_TRUE(a.Prepare().ok());
  ASSERT_TRUE(b.Prepare().ok());
  a.Train();
  b.Train();
  eval::Metrics ma = a.Evaluate(f.split.test_users);
  eval::Metrics mb = b.Evaluate(f.split.test_users);
  EXPECT_DOUBLE_EQ(ma.rmse, mb.rmse);
  EXPECT_DOUBLE_EQ(ma.mae, mb.mae);
}

TEST(TrainerTest, AblationSwitchesRun) {
  Fixture f;
  for (int variant = 0; variant < 3; ++variant) {
    OmniMatchConfig config = TinyTrainConfig();
    config.epochs = 1;
    if (variant == 0) config.use_scl = false;
    if (variant == 1) config.use_domain_adversarial = false;
    if (variant == 2) {
      config.use_aux_reviews = false;
      config.aux_augmentation_prob = 0.0f;
    }
    OmniMatchTrainer trainer(config, &f.cross, f.split);
    ASSERT_TRUE(trainer.Prepare().ok());
    TrainStats stats = trainer.Train();
    if (variant == 0) {
      EXPECT_EQ(stats.scl_loss[0], 0.0);
    }
    if (variant == 1) {
      EXPECT_EQ(stats.domain_loss[0], 0.0);
    }
    EXPECT_GT(trainer.Evaluate(f.split.test_users).count, 0);
  }
}

TEST(TrainerTest, FullTextVariantRuns) {
  Fixture f;
  OmniMatchConfig config = TinyTrainConfig();
  config.epochs = 1;
  config.text_field = TextField::kFullText;
  OmniMatchTrainer trainer(config, &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  EXPECT_GT(trainer.Evaluate(f.split.test_users).count, 0);
}

TEST(TrainerTest, OracleDocsChangeEvaluation) {
  Fixture f;
  OmniMatchTrainer trainer(TinyTrainConfig(), &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  eval::Metrics aux = trainer.Evaluate(f.split.test_users);
  trainer.UseOracleTargetDocs(f.split.test_users);
  eval::Metrics oracle = trainer.Evaluate(f.split.test_users);
  EXPECT_EQ(aux.count, oracle.count);
  EXPECT_NE(aux.rmse, oracle.rmse);  // different documents, different preds
  // The oracle document replaces the whole ensemble: no Algorithm 1
  // variant may still be averaged in.
  for (int u : f.split.test_users) {
    if (f.cross.target().RecordsOfUser(u).empty()) continue;
    EXPECT_EQ(trainer.cold_aux_doc_variants().count(u), 0u) << "user " << u;
  }
}

TEST(TrainerTest, EvaluateIndependentOfBatchComposition) {
  // Training users have one document, cold users aux_eval_samples. Mixing
  // them in small batches must not change any pair's prediction: Evaluate
  // equals PredictRating pair by pair, accumulated in the same order.
  Fixture f;
  OmniMatchConfig config = TinyTrainConfig();
  config.aux_eval_samples = 3;
  config.batch_size = 4;
  config.epochs = 1;
  OmniMatchTrainer trainer(config, &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  std::vector<int> users;
  for (size_t i = 0; i < f.split.train_users.size() ||
                     i < f.split.test_users.size();
       ++i) {
    if (i < f.split.train_users.size()) users.push_back(f.split.train_users[i]);
    if (i < f.split.test_users.size()) users.push_back(f.split.test_users[i]);
  }
  eval::MetricsAccumulator one_by_one;
  for (int u : users) {
    for (int idx : f.cross.target().RecordsOfUser(u)) {
      const size_t i = static_cast<size_t>(idx);
      one_by_one.Add(trainer.PredictRating(u, f.cross.target().ReviewItem(i)),
                     f.cross.target().ReviewRating(i));
    }
  }
  Result<eval::Metrics> expected = one_by_one.Finalize();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(trainer.Evaluate(users).rmse, expected.value().rmse);
}

TEST(TrainerTest, ZeroEpochTrainingStillEvaluates) {
  Fixture f;
  OmniMatchConfig config = TinyTrainConfig();
  config.epochs = 0;
  OmniMatchTrainer trainer(config, &f.cross, f.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  TrainStats stats = trainer.Train();
  EXPECT_EQ(stats.steps, 0);
  EXPECT_GT(trainer.Evaluate(f.split.test_users).count, 0);
}

}  // namespace
}  // namespace core
}  // namespace omnimatch
