#include <memory>

#include <gtest/gtest.h>

#include "baselines/cmf.h"
#include "baselines/emcdr.h"
#include "baselines/herograph.h"
#include "baselines/lightgcn.h"
#include "baselines/ngcf.h"
#include "baselines/ptupcdr.h"
#include "baselines/recommender.h"
#include "data/splits.h"
#include "data/synthetic.h"

namespace omnimatch {
namespace baselines {
namespace {

struct Fixture {
  Fixture() {
    data::SyntheticConfig config;
    config.num_users = 90;
    config.items_per_domain = 40;
    config.mean_reviews_per_user = 5;
    config.seed = 77;
    world = std::make_unique<data::SyntheticWorld>(config);
    cross = std::make_unique<data::CrossDomainDataset>(
        world->MakePair("Books", "Movies"));
    Rng rng(3);
    split = data::MakeColdStartSplit(*cross, &rng);
  }
  std::unique_ptr<data::SyntheticWorld> world;
  std::unique_ptr<data::CrossDomainDataset> cross;
  data::ColdStartSplit split;
};

std::unique_ptr<Recommender> MakeByName(const std::string& name) {
  if (name == "CMF") return std::make_unique<Cmf>();
  if (name == "EMCDR") {
    Emcdr::Config c;
    c.mapping_epochs = 40;
    return std::make_unique<Emcdr>(c);
  }
  if (name == "PTUPCDR") {
    Ptupcdr::Config c;
    c.warmup_epochs = 40;
    c.task_epochs = 3;
    return std::make_unique<Ptupcdr>(c);
  }
  GnnConfig gnn;
  gnn.epochs = 10;
  if (name == "NGCF") return std::make_unique<Ngcf>(gnn);
  if (name == "LIGHTGCN") return std::make_unique<LightGcn>(gnn);
  if (name == "HeroGraph") return std::make_unique<HeroGraph>(gnn);
  return nullptr;
}

class BaselineContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineContractTest, FitsAndPredictsInScale) {
  Fixture f;
  auto model = MakeByName(GetParam());
  ASSERT_NE(model, nullptr);
  ASSERT_TRUE(model->Fit(*f.cross, f.split).ok());
  for (int u : f.split.test_users) {
    for (int idx : f.cross->target().RecordsOfUser(u)) {
      float pred =
          model->PredictRating(u, f.cross->target().ReviewItem(idx));
      EXPECT_GE(pred, 1.0f);
      EXPECT_LE(pred, 5.0f);
    }
  }
}

TEST_P(BaselineContractTest, BeatsWorstCaseRmse) {
  Fixture f;
  auto model = MakeByName(GetParam());
  ASSERT_TRUE(model->Fit(*f.cross, f.split).ok());
  eval::Metrics m = EvaluateRecommender(*model, *f.cross,
                                        f.split.test_users);
  EXPECT_GT(m.count, 0);
  // Any reasonable model beats the "always predict 1" strawman by far.
  EXPECT_LT(m.rmse, 2.0);
}

TEST_P(BaselineContractTest, HandlesUnknownUserAndItem) {
  Fixture f;
  auto model = MakeByName(GetParam());
  ASSERT_TRUE(model->Fit(*f.cross, f.split).ok());
  float pred = model->PredictRating(123456, 654321);
  EXPECT_GE(pred, 1.0f);
  EXPECT_LE(pred, 5.0f);
}

TEST_P(BaselineContractTest, NameMatchesPaperSpelling) {
  auto model = MakeByName(GetParam());
  EXPECT_EQ(model->name(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineContractTest,
                         ::testing::Values("CMF", "EMCDR", "PTUPCDR", "NGCF",
                                           "LIGHTGCN", "HeroGraph"));

TEST(BaselineProtocolTest, VisibleRatingsHideColdTargetRecords) {
  Fixture f;
  std::vector<RatingTriple> visible =
      VisibleRatings(*f.cross, f.split, /*source=*/true, /*target=*/true);
  std::set<int> cold(f.split.test_users.begin(), f.split.test_users.end());
  cold.insert(f.split.validation_users.begin(),
              f.split.validation_users.end());
  std::set<int> target_items(f.cross->target().items().begin(),
                             f.cross->target().items().end());
  for (const RatingTriple& r : visible) {
    if (cold.count(r.user) > 0) {
      // A cold user's visible ratings must all be source-domain.
      EXPECT_EQ(target_items.count(r.item), 0u)
          << "leaked target rating of cold user " << r.user;
    }
  }
}

TEST(BaselineProtocolTest, SourceOnlySelection) {
  Fixture f;
  std::vector<RatingTriple> source_only =
      VisibleRatings(*f.cross, f.split, true, false);
  EXPECT_EQ(source_only.size(), f.cross->source().num_reviews());
}

TEST(SingleDomainColdStartTest, LightGcnPredictionIgnoresColdUserIdentity) {
  // Single-domain models never see cold users: predictions for two distinct
  // cold users on the same item must be identical (mu + item bias).
  Fixture f;
  GnnConfig gnn;
  gnn.epochs = 5;
  LightGcn model(gnn);
  ASSERT_TRUE(model.Fit(*f.cross, f.split).ok());
  ASSERT_GE(f.split.test_users.size(), 2u);
  int item = f.cross->target().items()[0];
  EXPECT_FLOAT_EQ(model.PredictRating(f.split.test_users[0], item),
                  model.PredictRating(f.split.test_users[1], item));
}

TEST(CrossDomainColdStartTest, HeroGraphPersonalizesColdUsers) {
  // The joint graph gives cold users source-side embeddings, so two cold
  // users should (generically) get different predictions on some item.
  Fixture f;
  GnnConfig gnn;
  gnn.epochs = 10;
  HeroGraph model(gnn);
  ASSERT_TRUE(model.Fit(*f.cross, f.split).ok());
  bool differs = false;
  int item = f.cross->target().items()[0];
  for (size_t i = 1; i < f.split.test_users.size() && !differs; ++i) {
    if (model.PredictRating(f.split.test_users[0], item) !=
        model.PredictRating(f.split.test_users[i], item)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(CrossDomainColdStartTest, EmcdrMapsColdUsers) {
  Fixture f;
  Emcdr::Config config;
  config.mapping_epochs = 40;
  Emcdr model(config);
  ASSERT_TRUE(model.Fit(*f.cross, f.split).ok());
  bool differs = false;
  int item = f.cross->target().items()[0];
  for (size_t i = 1; i < f.split.test_users.size() && !differs; ++i) {
    if (model.PredictRating(f.split.test_users[0], item) !=
        model.PredictRating(f.split.test_users[i], item)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace baselines
}  // namespace omnimatch
