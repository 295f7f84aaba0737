// End-to-end integration: generate a corpus, train OmniMatch and two
// baselines under the same split, and check the qualitative claims the
// paper's evaluation rests on — at miniature scale so the whole file runs
// in a few seconds.

#include <gtest/gtest.h>

#include "baselines/lightgcn.h"
#include "baselines/recommender.h"
#include "core/trainer.h"
#include "data/csv.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "eval/runner.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace {

data::SyntheticConfig SmallWorld() {
  data::SyntheticConfig c;
  c.num_users = 140;
  c.items_per_domain = 70;
  c.mean_reviews_per_user = 6;
  c.seed = 404;
  return c;
}

core::OmniMatchConfig SmallModel() {
  core::OmniMatchConfig config;
  config.embed_dim = 16;
  config.cnn_channels = 8;
  config.feature_dim = 16;
  config.projection_dim = 8;
  config.doc_len = 32;
  config.item_doc_len = 32;
  config.batch_size = 32;
  config.epochs = 5;
  config.aux_eval_samples = 2;
  config.seed = 11;
  return config;
}

TEST(EndToEndTest, TrainingImprovesOverUntrainedModel) {
  data::SyntheticWorld world(SmallWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);

  core::OmniMatchConfig untrained_config = SmallModel();
  untrained_config.epochs = 0;
  core::OmniMatchTrainer untrained(untrained_config, &cross, split);
  ASSERT_TRUE(untrained.Prepare().ok());
  untrained.Train();
  eval::Metrics before = untrained.Evaluate(split.test_users);

  core::OmniMatchTrainer trainer(SmallModel(), &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  eval::Metrics after = trainer.Evaluate(split.test_users);

  EXPECT_LT(after.rmse, before.rmse);
}

TEST(EndToEndTest, RunnerProducesAllRequestedMethods) {
  data::SyntheticWorld world(SmallWorld());
  eval::RunnerOptions options;
  options.methods = {"LIGHTGCN", "CMF", "OmniMatch"};
  options.omnimatch = SmallModel();
  options.seed = 3;
  eval::ScenarioResult result =
      eval::RunScenario(world, "Books", "Music", options);
  ASSERT_EQ(result.methods.size(), 3u);
  EXPECT_EQ(result.scenario, "Books -> Music");
  for (const auto& m : result.methods) {
    EXPECT_GT(m.test.rmse, 0.0);
    EXPECT_GT(m.test.count, 0);
  }
}

TEST(EndToEndTest, RunnerTrialsAverage) {
  data::SyntheticWorld world(SmallWorld());
  eval::RunnerOptions options;
  options.methods = {"CMF"};
  options.trials = 2;
  options.seed = 9;
  eval::ScenarioResult result =
      eval::RunScenario(world, "Movies", "Books", options);
  // Two trials accumulate twice the per-trial count.
  EXPECT_GT(result.methods[0].test.count, 0);
}

TEST(EndToEndTest, CsvRoundTripTrainsIdentically) {
  // Persist the corpus, reload it, and verify the reloaded scenario trains
  // to exactly the same cold-start metrics (the adoption path for real
  // datasets).
  data::SyntheticWorld world(SmallWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");

  std::string src_path = testing_util::TestTempDir() + "/e2e_source.tsv";
  std::string tgt_path = testing_util::TestTempDir() + "/e2e_target.tsv";
  ASSERT_TRUE(data::SaveDomainTsv(cross.source(), src_path).ok());
  ASSERT_TRUE(data::SaveDomainTsv(cross.target(), tgt_path).ok());
  auto src = data::LoadDomainTsv(src_path, "Books");
  auto tgt = data::LoadDomainTsv(tgt_path, "Movies");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(tgt.ok());
  data::CrossDomainDataset reloaded(std::move(src).value(),
                                    std::move(tgt).value());

  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  core::OmniMatchTrainer a(SmallModel(), &cross, split);
  core::OmniMatchTrainer b(SmallModel(), &reloaded, split);
  ASSERT_TRUE(a.Prepare().ok());
  ASSERT_TRUE(b.Prepare().ok());
  a.Train();
  b.Train();
  EXPECT_DOUBLE_EQ(a.Evaluate(split.test_users).rmse,
                   b.Evaluate(split.test_users).rmse);
  std::remove(src_path.c_str());
  std::remove(tgt_path.c_str());
}

TEST(EndToEndTest, ColdUsersNeverContributeTargetTrainingSamples) {
  // Protocol audit: train with epochs=0 and verify the trainer's evaluation
  // of cold users runs on exactly the hidden records.
  data::SyntheticWorld world(SmallWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(6);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  core::OmniMatchConfig config = SmallModel();
  config.epochs = 0;
  core::OmniMatchTrainer trainer(config, &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  eval::Metrics m = trainer.Evaluate(split.test_users);
  size_t expected = data::TargetRecordsOfUsers(cross, split.test_users).size();
  EXPECT_EQ(static_cast<size_t>(m.count), expected);
}

}  // namespace
}  // namespace omnimatch
