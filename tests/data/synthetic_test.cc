#include "data/synthetic.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "data/omds.h"
#include "text/tokenizer.h"

namespace omnimatch {
namespace data {
namespace {

SyntheticConfig TinyConfig(uint64_t seed = 42) {
  SyntheticConfig c;
  c.num_users = 60;
  c.items_per_domain = 40;
  c.mean_reviews_per_user = 5;
  c.seed = seed;
  return c;
}

TEST(SyntheticTest, GeneratesAllDomains) {
  SyntheticWorld world(TinyConfig());
  EXPECT_EQ(world.domain_names().size(), 3u);
  for (const auto& name : world.domain_names()) {
    EXPECT_GT(world.domain(name).num_reviews(), 0u);
  }
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  SyntheticWorld a(TinyConfig(7)), b(TinyConfig(7));
  const DomainDataset& ra = a.domain("Books");
  const DomainDataset& rb = b.domain("Books");
  ASSERT_EQ(ra.num_reviews(), rb.num_reviews());
  for (size_t i = 0; i < ra.num_reviews(); ++i) {
    EXPECT_EQ(ra.ReviewUser(i), rb.ReviewUser(i));
    EXPECT_EQ(ra.ReviewItem(i), rb.ReviewItem(i));
    EXPECT_EQ(ra.ReviewRating(i), rb.ReviewRating(i));
    EXPECT_EQ(ra.ReviewSummary(i), rb.ReviewSummary(i));
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticWorld a(TinyConfig(7)), b(TinyConfig(8));
  EXPECT_NE(a.domain("Books").ReviewSummary(0),
            b.domain("Books").ReviewSummary(0));
}

TEST(SyntheticTest, RatingsInRange) {
  SyntheticWorld world(TinyConfig());
  for (const auto& name : world.domain_names()) {
    const DomainDataset& d = world.domain(name);
    for (size_t i = 0; i < d.num_reviews(); ++i) {
      const float rating = d.ReviewRating(i);
      EXPECT_GE(rating, 1.0f);
      EXPECT_LE(rating, 5.0f);
      EXPECT_EQ(rating, std::round(rating)) << "integer star ratings";
    }
  }
}

TEST(SyntheticTest, ItemIdsNamespacedPerDomain) {
  SyntheticWorld world(TinyConfig());
  std::set<int> books_items(world.domain("Books").items().begin(),
                            world.domain("Books").items().end());
  for (int item : world.domain("Movies").items()) {
    EXPECT_EQ(books_items.count(item), 0u) << "item id collision " << item;
  }
}

TEST(SyntheticTest, UsersReviewEachItemAtMostOnce) {
  SyntheticWorld world(TinyConfig());
  const DomainDataset& d = world.domain("Music");
  for (int u : d.users()) {
    std::set<int> items;
    for (int idx : d.RecordsOfUser(u)) {
      EXPECT_TRUE(items.insert(d.ReviewItem(idx)).second)
          << "duplicate item for user " << u;
    }
  }
}

TEST(SyntheticTest, SummariesWithinConfiguredLength) {
  SyntheticConfig c = TinyConfig();
  SyntheticWorld world(c);
  const DomainDataset& d = world.domain("Books");
  for (size_t i = 0; i < d.num_reviews(); ++i) {
    auto toks = text::Tokenize(d.ReviewSummary(i));
    EXPECT_GE(static_cast<int>(toks.size()), c.summary_len_min);
    EXPECT_LE(static_cast<int>(toks.size()), c.summary_len_max);
  }
}

TEST(SyntheticTest, FullTextLongerThanSummary) {
  SyntheticWorld world(TinyConfig());
  const DomainDataset& d = world.domain("Books");
  size_t longer = 0, total = d.num_reviews();
  for (size_t i = 0; i < total; ++i) {
    if (d.ReviewFullText(i).size() > d.ReviewSummary(i).size()) ++longer;
  }
  EXPECT_GT(longer, total * 9 / 10);
}

TEST(SyntheticTest, CrossDomainPairHasOverlap) {
  SyntheticWorld world(TinyConfig());
  CrossDomainDataset cross = world.MakePair("Books", "Movies");
  EXPECT_GT(cross.overlapping_users().size(), 10u);
}

TEST(SyntheticTest, SelectionEffectRaisesObservedAffinity) {
  // Users pick items they like: observed mean rating must exceed what the
  // intercept alone would give under uniform selection.
  SyntheticConfig with_sel = TinyConfig();
  with_sel.num_users = 150;
  with_sel.selection_gain = 1.5;
  SyntheticConfig without_sel = with_sel;
  without_sel.selection_gain = 0.0;
  SyntheticWorld sel_world(with_sel);
  SyntheticWorld uni_world(without_sel);
  EXPECT_GT(sel_world.domain("Books").GlobalMeanRating(),
            uni_world.domain("Books").GlobalMeanRating() + 0.05f);
}

TEST(SyntheticTest, DomainVocabulariesAreDistinctForTopics) {
  // Topic surface words differ across domains (vampireb0 vs vampirem0),
  // while sentiment words are shared.
  SyntheticWorld world(TinyConfig());
  std::set<std::string> books_tokens, movies_tokens;
  auto collect = [](const DomainDataset& d, std::set<std::string>* tokens) {
    for (size_t i = 0; i < d.num_reviews(); ++i) {
      for (auto& t : text::Tokenize(d.ReviewSummary(i))) tokens->insert(t);
    }
  };
  collect(world.domain("Books"), &books_tokens);
  collect(world.domain("Movies"), &movies_tokens);
  bool books_topic_in_movies = false;
  for (const auto& t : books_tokens) {
    if (t.rfind("vampireb", 0) == 0 && movies_tokens.count(t)) {
      books_topic_in_movies = true;
    }
  }
  EXPECT_FALSE(books_topic_in_movies);
  // Sentiment vocabulary is shared: at least one "superb*" token in both.
  auto has_superb = [](const std::set<std::string>& toks) {
    for (const auto& t : toks) {
      if (t.rfind("superb", 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_superb(books_tokens));
  EXPECT_TRUE(has_superb(movies_tokens));
}

TEST(SyntheticTest, UserPreferenceAccessibleAndStable) {
  SyntheticWorld world(TinyConfig());
  const auto& p = world.UserPreference(3);
  EXPECT_EQ(static_cast<int>(p.size()), world.config().latent_dim);
}

TEST(SyntheticTest, PresetsDiffer) {
  SyntheticConfig amazon = SyntheticConfig::AmazonLike();
  SyntheticConfig douban = SyntheticConfig::DoubanLike();
  // Douban is the sparser corpus with stronger taste-driven ratings.
  EXPECT_GT(amazon.mean_reviews_per_user, douban.mean_reviews_per_user);
  EXPECT_GT(amazon.num_users, douban.num_users);
  EXPECT_LT(amazon.affinity_scale, douban.affinity_scale);
}

TEST(SyntheticTest, ParticipationControlsDomainMembership) {
  SyntheticConfig c = TinyConfig();
  c.participation = 1.0;
  SyntheticWorld world(c);
  EXPECT_EQ(world.domain("Books").users().size(),
            static_cast<size_t>(c.num_users));
}

TEST(SyntheticTest, StreamDomainMatchesMaterializedRecords) {
  SyntheticConfig c = TinyConfig(77);
  SyntheticWorld materialized(c);
  SyntheticWorld deferred(c, {"Books", "Movies", "Music"});
  for (const auto& name : materialized.domain_names()) {
    const DomainDataset& mem = materialized.domain(name);
    size_t i = 0;
    // Both worlds stream; the deferred one never built a dataset at all.
    deferred.StreamDomain(name, [&](Review&& r) {
      ASSERT_LT(i, mem.num_reviews());
      EXPECT_EQ(r.user_id, mem.ReviewUser(i));
      EXPECT_EQ(r.item_id, mem.ReviewItem(i));
      EXPECT_EQ(r.rating, mem.ReviewRating(i));
      EXPECT_EQ(r.summary, mem.ReviewSummary(i));
      EXPECT_EQ(r.full_text, mem.ReviewFullText(i));
      ++i;
    });
    EXPECT_EQ(i, mem.num_reviews()) << name;
  }
}

TEST(SyntheticTest, StreamDomainIsRepeatable) {
  SyntheticWorld world(TinyConfig(78), {"Books", "Movies"});
  // Two replays written to two images must be byte-identical.
  OmdsWriter first, second;
  ASSERT_TRUE(world.WriteDomain("Movies", &first).ok());
  ASSERT_TRUE(world.WriteDomain("Movies", &second).ok());
  ASSERT_GT(first.num_records(), 0u);
  Result<std::shared_ptr<const OmdsFile>> a = first.TakeImage();
  Result<std::shared_ptr<const OmdsFile>> b = second.TakeImage();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value()->bytes(), b.value()->bytes());
}

TEST(SyntheticTest, DomainImagesMatchPinnedCrcs) {
  // Whole-image CRC-32s of every domain, recorded before the generator's
  // sampler and string building were rewritten; any change to one byte of
  // any review, or to the image layout, changes them.
  SyntheticConfig serve_world = SyntheticConfig::AmazonLike();
  serve_world.num_users = 1300;
  serve_world.participation = 0.6;
  struct Pinned {
    const char* world;
    SyntheticConfig config;
    uint32_t crc[3];  // Books, Movies, Music
  };
  const Pinned pinned[] = {
      {"AmazonLike", SyntheticConfig::AmazonLike(),
       {0xba5c2e15u, 0x91a655c8u, 0xcb4c2a8au}},
      {"DoubanLike", SyntheticConfig::DoubanLike(),
       {0x38c03214u, 0x210811b2u, 0x5d49fd4cu}},
      {"1300 users, participation 0.6", serve_world,
       {0xdd72e973u, 0x19af58bbu, 0x5da06693u}},
  };
  for (const Pinned& p : pinned) {
    SyntheticWorld world(p.config);
    for (size_t d = 0; d < 3; ++d) {
      const std::string& name = world.domain_names()[d];
      EXPECT_EQ(p.crc[d], Crc32(world.domain(name).image().bytes()))
          << p.world << " " << name;
    }
  }
}

TEST(SyntheticTest, ConcurrentFirstReadsShareOneDomain) {
  // Domains are built on first read; threads racing to that read must all
  // get the one dataset, byte-identical to a world read by one thread.
  const SyntheticConfig c = TinyConfig(91);
  SyntheticWorld reference(c);
  SyntheticWorld world(c);
  constexpr int kThreads = 6;
  std::vector<const DomainDataset*> books(kThreads), movies(kThreads);
  std::vector<CrossDomainDataset> pairs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads reach the domains through MakePair first.
      if (t % 2 == 0) pairs[t] = world.MakePair("Books", "Movies");
      books[t] = &world.domain("Books");
      movies[t] = &world.domain("Movies");
      if (t % 2 == 1) pairs[t] = world.MakePair("Books", "Movies");
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(books[0], books[t]);
    EXPECT_EQ(movies[0], movies[t]);
    // A pair shares its domains' images rather than copying them.
    EXPECT_EQ(books[0]->image().bytes().data(),
              pairs[t].source().image().bytes().data());
    EXPECT_EQ(movies[0]->image().bytes().data(),
              pairs[t].target().image().bytes().data());
  }
  EXPECT_EQ(reference.domain("Books").image().bytes(),
            books[0]->image().bytes());
  EXPECT_EQ(reference.domain("Movies").image().bytes(),
            movies[0]->image().bytes());
}

}  // namespace
}  // namespace data
}  // namespace omnimatch
