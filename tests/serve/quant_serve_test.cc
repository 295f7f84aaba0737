// Quantized serving tests: the --quant snapshot mode must build a sane
// per-node plan, stay within the accuracy gate against the float32 scorer,
// and be deterministic across calls and thread counts. The float path must
// be byte-identical with quantization off (covered by serve_test's
// BitIdenticalToTrainerEvalPath against the same snapshot machinery).

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "serve/scorer.h"
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
  config.select_best_epoch = false;
  config.seed = 31;
  return config;
}

/// One trained world with BOTH a float and a quantized snapshot of the same
/// checkpoint, shared across the suite (training dominates the cost).
struct QuantWorld {
  data::CrossDomainDataset cross;
  data::ColdStartSplit split;
  core::OmniMatchConfig config;
  std::unique_ptr<core::OmniMatchTrainer> trainer;
  std::shared_ptr<const ModelSnapshot> float_snapshot;
  std::shared_ptr<const ModelSnapshot> quant_snapshot;
};

QuantWorld* BuildWorld() {
  auto* w = new QuantWorld();
  data::SyntheticConfig world_config;
  world_config.num_users = 60;
  world_config.items_per_domain = 30;
  world_config.mean_reviews_per_user = 5;
  world_config.seed = 23;
  data::SyntheticWorld world(world_config);
  w->cross = world.MakePair("Books", "Movies");
  Rng split_rng(7);
  w->split = data::MakeColdStartSplit(w->cross, &split_rng);
  w->config = TinyModel();

  w->trainer = std::make_unique<core::OmniMatchTrainer>(w->config, &w->cross,
                                                        w->split);
  EXPECT_TRUE(w->trainer->Prepare().ok());
  w->trainer->Train();
  const std::string path =
      testing_util::TestTempDir() + "/quant_serve_test.omck";
  EXPECT_TRUE(w->trainer->SaveCheckpoint(path).ok());

  Result<std::shared_ptr<const ModelSnapshot>> plain =
      ModelSnapshot::Load(w->config, &w->cross, w->split, path);
  EXPECT_TRUE(plain.ok()) << plain.status().ToString();
  w->float_snapshot = plain.value();

  ModelSnapshot::Options options;
  options.quantize = true;
  Result<std::shared_ptr<const ModelSnapshot>> quant =
      ModelSnapshot::Load(w->config, &w->cross, w->split, path, options);
  EXPECT_TRUE(quant.ok()) << quant.status().ToString();
  w->quant_snapshot = quant.value();
  return w;
}

QuantWorld& World() {
  static QuantWorld* world = BuildWorld();
  return *world;
}

std::vector<ScoreRequest> ReferencePairs() {
  QuantWorld& w = World();
  std::vector<ScoreRequest> pairs;
  const std::vector<int>& items = w.cross.target().items();
  auto add_users = [&](const std::vector<int>& users, size_t count) {
    for (size_t i = 0; i < std::min(count, users.size()); ++i) {
      for (size_t j = 0; j < 3; ++j) {
        pairs.push_back({users[i], items[(i * 3 + j * 7) % items.size()]});
      }
    }
  };
  add_users(w.split.test_users, 4);
  add_users(w.split.validation_users, 2);
  add_users(w.split.train_users, 4);
  return pairs;
}

TEST(QuantSnapshotTest, DefaultLoadCarriesNoQuantHead) {
  EXPECT_EQ(World().float_snapshot->quant_head(), nullptr);
}

TEST(QuantSnapshotTest, QuantLoadBuildsPlannedHead) {
  QuantWorld& w = World();
  const QuantizedRatingHead* head = w.quant_snapshot->quant_head();
  ASSERT_NE(head, nullptr);
  const int f = w.config.feature_dim;
  EXPECT_EQ(head->user_width(), 2 * f);
  EXPECT_EQ(head->item_width(), f);
  EXPECT_EQ(head->num_classes(), w.config.num_rating_classes);

  // TinyModel (f=8) rating path: interaction [16->8], mlp [32->16->8->5].
  // With the default planner floors (min_k=16) the first three GEMMs run
  // int8 and the tiny final classifier stays float32 — the plan must say
  // exactly that, per node, with the ISA dispatch settled on.
  const nn::quant::QuantPlan& plan = head->plan();
  ASSERT_EQ(plan.nodes.size(), 4u);
  EXPECT_EQ(plan.nodes[0].name, "interaction_proj");
  EXPECT_TRUE(plan.nodes[0].int8);
  EXPECT_EQ(plan.nodes[0].k, 2 * f);
  EXPECT_EQ(plan.nodes[0].n, f);
  EXPECT_TRUE(plan.nodes[1].int8);   // 32 -> 16
  EXPECT_TRUE(plan.nodes[2].int8);   // 16 -> 8
  EXPECT_FALSE(plan.nodes[3].int8);  // 8 -> 5: K below min_k, stays float
  EXPECT_EQ(plan.Int8Nodes(), 3);
  EXPECT_FALSE(plan.ToString().empty());
}

// The accuracy gate, scaled to the unit world: quantized scores track the
// float32 scorer closely per prediction, and the two paths' RMSE against
// the gold ratings differ by less than the serving gate allows. bench_quant
// gates the full Table-2-shaped world the same way in CI.
TEST(QuantScorerTest, TracksFloatScorerWithinRmseGate) {
  QuantWorld& w = World();
  Scorer float_scorer(w.float_snapshot, /*cache_capacity=*/256);
  Scorer quant_scorer(w.quant_snapshot, /*cache_capacity=*/256);
  std::vector<ScoreRequest> pairs = ReferencePairs();
  ASSERT_FALSE(pairs.empty());
  std::vector<float> float_scores = float_scorer.ScoreBatch(pairs);
  std::vector<float> quant_scores = quant_scorer.ScoreBatch(pairs);
  ASSERT_EQ(float_scores.size(), quant_scores.size());

  double sq_diff = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(std::isfinite(quant_scores[i]));
    EXPECT_GE(quant_scores[i], 1.0f - 1e-4f);
    EXPECT_LE(quant_scores[i], 5.0f + 1e-4f);
    EXPECT_LE(std::fabs(quant_scores[i] - float_scores[i]), 0.25f)
        << "user " << pairs[i].user << " item " << pairs[i].item;
    sq_diff += static_cast<double>(quant_scores[i] - float_scores[i]) *
               (quant_scores[i] - float_scores[i]);
  }
  const double rmse_delta = std::sqrt(sq_diff / pairs.size());
  EXPECT_LT(rmse_delta, 0.05)
      << "quantized scores drifted from float32 beyond the gate";
}

TEST(QuantScorerTest, DeterministicAcrossCallsAndThreadCounts) {
  QuantWorld& w = World();
  std::vector<ScoreRequest> pairs = ReferencePairs();

  Scorer a(w.quant_snapshot, /*cache_capacity=*/256);
  std::vector<float> first = a.ScoreBatch(pairs);
  std::vector<float> second = a.ScoreBatch(pairs);
  EXPECT_EQ(first, second) << "same scorer, same batch: must be exact";

  // A fresh scorer (cold cache) and a different thread count must still
  // reproduce every bit: int32 accumulation is exact and row sharding
  // never splits an output element.
  const int before = GetNumThreads();
  SetNumThreads(1);
  Scorer b(w.quant_snapshot, /*cache_capacity=*/256);
  std::vector<float> serial = b.ScoreBatch(pairs);
  SetNumThreads(before);
  EXPECT_EQ(first, serial);
}

}  // namespace
}  // namespace serve
}  // namespace omnimatch
