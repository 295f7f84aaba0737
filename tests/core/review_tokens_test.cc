// Equivalence of the token-table document path with the string path it
// replaced (core/string_documents.h): the vocabulary in id order and every
// fixed document a Prepare()d trainer holds must match token for token,
// and the cold-start documents draw for draw.

#include <algorithm>
#include <ostream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/string_documents.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "text/document.h"

namespace omnimatch {
namespace core {
namespace {

namespace ref = string_documents;

struct Case {
  const char* name;
  TextField field = TextField::kSummary;
  int min_vocab_count = 1;
  bool use_aux_reviews = true;
  bool oracle_target_docs = false;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct World {
  World() : world(Config()), cross(world.MakePair("Books", "Movies")) {
    Rng rng(5);
    split = data::MakeColdStartSplit(cross, &rng);
  }
  static data::SyntheticConfig Config() {
    data::SyntheticConfig c;
    c.num_users = 80;
    c.items_per_domain = 30;
    c.mean_reviews_per_user = 5;
    c.participation = 0.8;  // leaves source-only users
    c.seed = 21;
    return c;
  }
  data::SyntheticWorld world;
  data::CrossDomainDataset cross;
  data::ColdStartSplit split;
};

OmniMatchConfig MakeConfig(const Case& c) {
  OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 8;
  config.projection_dim = 4;
  config.doc_len = 24;
  config.item_doc_len = 40;
  config.seed = 31;
  config.text_field = c.field;
  config.min_vocab_count = c.min_vocab_count;
  config.use_aux_reviews = c.use_aux_reviews;
  return config;
}

class StringPathEquivalenceTest : public testing::TestWithParam<Case> {};

TEST_P(StringPathEquivalenceTest, PreparedDocumentsMatchStringPath) {
  const Case& c = GetParam();
  World w;
  const data::DomainDataset& source = w.cross.source();
  const data::DomainDataset& target = w.cross.target();
  const OmniMatchConfig config = MakeConfig(c);
  OmniMatchTrainer trainer(config, &w.cross, w.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  if (c.oracle_target_docs) trainer.UseOracleTargetDocs(w.split.test_users);

  // Vocabulary, in id order.
  const text::Vocabulary vocab = ref::Vocabulary(
      w.cross, w.split.train_users, c.field, c.min_vocab_count);
  ASSERT_EQ(trainer.vocabulary().size(), vocab.size());
  for (int id = 0; id < vocab.size(); ++id) {
    ASSERT_EQ(trainer.vocabulary().TokenOf(id), vocab.TokenOf(id)) << id;
  }
  if (c.min_vocab_count > 1) {
    // The filter has something to drop in this world.
    ASSERT_LT(vocab.size(),
              ref::Vocabulary(w.cross, w.split.train_users, c.field, 1).size());
  }

  auto doc_of = [&](const data::DomainDataset& domain,
                    const std::vector<int>& records, int len) {
    return ref::Document(ref::Texts(domain, records, c.field), vocab, len);
  };

  // Source documents of every overlapping user.
  ASSERT_EQ(trainer.user_source_docs().size(),
            w.cross.overlapping_users().size());
  for (int u : w.cross.overlapping_users()) {
    ASSERT_EQ(trainer.user_source_docs().at(u),
              doc_of(source, ref::Records(source.RecordsOfUser(u)),
                     config.doc_len))
        << "user " << u;
  }

  // Target documents: training users' real reviews.
  for (int u : w.split.train_users) {
    ASSERT_EQ(trainer.user_target_docs().at(u),
              doc_of(target, ref::Records(target.RecordsOfUser(u)),
                     config.doc_len))
        << "user " << u;
  }

  // Cold users: replay Prepare()'s draws from the trainer stream — first
  // the self-simulation documents of the training users, then every cold
  // user's ensemble.
  AuxReviewGenerator generator(&w.cross, w.split.train_users, c.field);
  Rng rng(config.seed);
  if (config.aux_augmentation_prob > 0.0f) {
    for (int u : w.split.train_users) generator.GenerateForUser(u, &rng);
  }
  std::vector<int> cold = w.split.validation_users;
  cold.insert(cold.end(), w.split.test_users.begin(), w.split.test_users.end());
  const std::unordered_set<int> oracle(
      c.oracle_target_docs ? w.split.test_users.begin()
                           : w.split.test_users.end(),
      w.split.test_users.end());
  for (int u : cold) {
    std::vector<std::vector<int>> docs =
        ref::ColdStartDocs(generator, config, vocab, u, &rng);
    if (oracle.count(u) > 0 && !target.RecordsOfUser(u).empty()) {
      ASSERT_EQ(trainer.user_target_docs().at(u),
                doc_of(target, ref::Records(target.RecordsOfUser(u)),
                       config.doc_len))
          << "oracle user " << u;
      EXPECT_EQ(trainer.cold_aux_doc_variants().count(u), 0u);
      continue;
    }
    ASSERT_EQ(trainer.user_target_docs().at(u), docs[0]) << "user " << u;
    docs.erase(docs.begin());
    if (docs.empty()) {
      EXPECT_EQ(trainer.cold_aux_doc_variants().count(u), 0u);
    } else {
      ASSERT_EQ(trainer.cold_aux_doc_variants().at(u), docs) << "user " << u;
    }
  }
  EXPECT_EQ(trainer.user_target_docs().size(),
            w.split.train_users.size() + cold.size());

  // Item documents from training users' target reviews.
  const std::unordered_set<int> train(w.split.train_users.begin(),
                                      w.split.train_users.end());
  ASSERT_EQ(trainer.item_docs().size(), target.items().size());
  for (int item : target.items()) {
    std::vector<int> records;
    for (int r : target.RecordsOfItem(item)) {
      if (train.count(target.ReviewUser(static_cast<size_t>(r))) > 0) {
        records.push_back(r);
      }
    }
    ASSERT_EQ(trainer.item_docs().at(item),
              doc_of(target, records, config.item_doc_len))
        << "item " << item;
  }

  // Online admission's builder over every source-only user, from the
  // trainer's token tables (the tables a serving corpus shares).
  int source_only = 0;
  for (int u : source.users()) {
    if (target.HasUser(u)) continue;
    ++source_only;
    Rng table_rng(AuxReviewGenerator::PerUserSeed(77, u));
    Rng string_rng(AuxReviewGenerator::PerUserSeed(77, u));
    ASSERT_EQ(ColdStartDocs(generator, config, *trainer.review_tokens(), u,
                            &table_rng),
              ref::ColdStartDocs(generator, config, vocab, u, &string_rng))
        << "source-only user " << u;
    ASSERT_EQ(table_rng.NextU32(), string_rng.NextU32());
  }
  EXPECT_GT(source_only, 0);
}

TEST(ReviewTokensTest, TrainingStepsMatchPinnedDraws) {
  // The per-step training documents (review shuffle, word dropout, aux
  // substitution) are not observable from outside the trainer, so pin their
  // effect: losses and test RMSE of a short run, bit for bit, as the string
  // path produced them. A moved token or draw changes every step after it.
  // Re-baseline only with a change that is meant to move the numerics.
  World w;
  OmniMatchConfig config = MakeConfig(Case{"Summary"});
  config.batch_size = 16;
  config.epochs = 2;
  OmniMatchTrainer trainer(config, &w.cross, w.split);
  ASSERT_TRUE(trainer.Prepare().ok());
  const TrainStats stats = trainer.Train();
  ASSERT_EQ(stats.total_loss.size(), 2u);
  EXPECT_EQ(stats.total_loss[0], 0x1.6925a76276276p+1);
  EXPECT_EQ(stats.total_loss[1], 0x1.33298c2762762p+1);
  EXPECT_EQ(trainer.Evaluate(w.split.test_users).rmse, 0x1.4747f05389c13p+0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StringPathEquivalenceTest,
    testing::Values(Case{"Summary"},
                    Case{"FullText", TextField::kFullText},
                    Case{"MinVocabCount2", TextField::kSummary, 2},
                    Case{"FullTextMinVocabCount2", TextField::kFullText, 2},
                    Case{"NoAuxReviews", TextField::kSummary, 1, false},
                    Case{"OracleTargetDocs", TextField::kSummary, 1, true,
                         true}),
    [](const testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace core
}  // namespace omnimatch
