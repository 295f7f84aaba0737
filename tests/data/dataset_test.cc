#include "data/dataset.h"

#include <gtest/gtest.h>

#include "data/test_domain.h"

namespace omnimatch {
namespace data {
namespace {

Review MakeReview(int user, int item, float rating,
                  const std::string& text = "t") {
  Review r;
  r.user_id = user;
  r.item_id = item;
  r.rating = rating;
  r.summary = text;
  r.full_text = text;
  return r;
}

DomainDataset SmallDomain() {
  return MakeDomain("Books", {MakeReview(0, 10, 5), MakeReview(0, 11, 3),
                              MakeReview(1, 10, 5), MakeReview(2, 10, 4),
                              MakeReview(2, 11, 3)});
}

TEST(DomainDatasetTest, UsersAndItemsSorted) {
  DomainDataset d = SmallDomain();
  EXPECT_EQ(d.users(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(d.items(), (std::vector<int>{10, 11}));
  EXPECT_EQ(d.num_reviews(), 5u);
}

TEST(DomainDatasetTest, RecordsOfUser) {
  DomainDataset d = SmallDomain();
  const auto& recs = d.RecordsOfUser(0);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(d.ReviewItem(recs[0]), 10);
  EXPECT_EQ(d.ReviewItem(recs[1]), 11);
  EXPECT_TRUE(d.RecordsOfUser(99).empty());
}

TEST(DomainDatasetTest, RecordsOfItem) {
  DomainDataset d = SmallDomain();
  EXPECT_EQ(d.RecordsOfItem(10).size(), 3u);
  EXPECT_EQ(d.RecordsOfItem(11).size(), 2u);
  EXPECT_TRUE(d.RecordsOfItem(999).empty());
}

TEST(DomainDatasetTest, UsersWhoRatedIsTheLikeMindedDictionary) {
  DomainDataset d = SmallDomain();
  // Users 0 and 1 both rated item 10 with 5.0 (Algorithm 1's dictionary 2).
  const auto& like_minded = d.UsersWhoRated(10, 5.0f);
  ASSERT_EQ(like_minded.size(), 2u);
  EXPECT_EQ(like_minded[0], 0);
  EXPECT_EQ(like_minded[1], 1);
  // User 2 rated it 4.0.
  ASSERT_EQ(d.UsersWhoRated(10, 4.0f).size(), 1u);
  EXPECT_TRUE(d.UsersWhoRated(10, 1.0f).empty());
  EXPECT_TRUE(d.UsersWhoRated(404, 5.0f).empty());
}

TEST(DomainDatasetTest, UsersWhoRatedDeduplicatesRepeatReviewers) {
  // Regression: a user who reviews the same item with the same rating
  // several times used to appear once per review, skewing Algorithm 1's
  // uniform like-minded draw towards repeat reviewers.
  DomainDataset d =
      MakeDomain("Books", {MakeReview(7, 10, 5), MakeReview(7, 10, 5),
                           MakeReview(7, 10, 5), MakeReview(3, 10, 5)});
  EXPECT_EQ(d.UsersWhoRated(10, 5.0f), (std::vector<int>{3, 7}));
}

TEST(DomainDatasetTest, UsersWhoRatedIsSortedAscending) {
  DomainDataset d = MakeDomain(
      "Books", {MakeReview(9, 10, 2), MakeReview(1, 10, 2),
                MakeReview(5, 10, 2)});
  EXPECT_EQ(d.UsersWhoRated(10, 2.0f), (std::vector<int>{1, 5, 9}));
}

TEST(DomainDatasetTest, HalfStarRatingsKeySeparately) {
  // Regression: the (item, rating) key used to round to whole stars, so
  // 4.5 and 5.0 shared a bucket and Algorithm 1's "same rating" match
  // silently merged them.
  DomainDataset d = MakeDomain(
      "Books", {MakeReview(0, 10, 4.5f), MakeReview(1, 10, 5.0f),
                MakeReview(2, 10, 4.5f), MakeReview(3, 10, 4.0f)});
  EXPECT_EQ(d.UsersWhoRated(10, 4.5f), (std::vector<int>{0, 2}));
  EXPECT_EQ(d.UsersWhoRated(10, 5.0f), (std::vector<int>{1}));
  EXPECT_EQ(d.UsersWhoRated(10, 4.0f), (std::vector<int>{3}));
  EXPECT_TRUE(d.UsersWhoRated(10, 3.5f).empty());
}

TEST(DomainDatasetTest, GlobalMeanRating) {
  DomainDataset d = SmallDomain();
  EXPECT_FLOAT_EQ(d.GlobalMeanRating(), (5 + 3 + 5 + 4 + 3) / 5.0f);
  DomainDataset empty;
  EXPECT_FLOAT_EQ(empty.GlobalMeanRating(), 3.0f);
  EXPECT_EQ(MakeDomain("x", {}).GlobalMeanRating(), 3.0f);
}

TEST(DomainDatasetTest, MeanReviewsPerUser) {
  DomainDataset d = SmallDomain();
  EXPECT_DOUBLE_EQ(d.MeanReviewsPerUser(), 5.0 / 3.0);
}

TEST(DomainDatasetTest, RebuildAfterAdding) {
  // Datasets are immutable: a record is added by building a new dataset,
  // whose constructor indexes it.
  DomainDataset d = MakeDomain(
      "Books", {MakeReview(0, 10, 5), MakeReview(0, 11, 3),
                MakeReview(1, 10, 5), MakeReview(2, 10, 4),
                MakeReview(2, 11, 3), MakeReview(3, 11, 2)});
  EXPECT_EQ(d.users().size(), 4u);
  EXPECT_EQ(d.RecordsOfItem(11).size(), 3u);
  EXPECT_EQ(SmallDomain().users().size(), 3u);
}

TEST(DomainDatasetTest, CopiesShareTheImage) {
  DomainDataset d = SmallDomain();
  DomainDataset copy = d;
  EXPECT_EQ(&copy.image(), &d.image());
  EXPECT_EQ(copy.ReviewSummary(0).data(), d.ReviewSummary(0).data());
  EXPECT_EQ(copy.UsersWhoRated(10, 5.0f), d.UsersWhoRated(10, 5.0f));
}

TEST(CrossDomainDatasetTest, OverlapIsIntersection) {
  CrossDomainDataset cross(
      MakeDomain("Books", {MakeReview(0, 1, 5), MakeReview(1, 1, 4),
                           MakeReview(2, 2, 3)}),
      MakeDomain("Movies", {MakeReview(1, 100001, 5),
                            MakeReview(2, 100001, 2),
                            MakeReview(9, 100002, 3)}));
  EXPECT_EQ(cross.overlapping_users(), (std::vector<int>{1, 2}));
  EXPECT_EQ(cross.ScenarioName(), "Books -> Movies");
}

TEST(CrossDomainDatasetTest, RecomputeAfterMutation) {
  // Domains are immutable: a changed target means a new pair, which
  // computes its own overlap.
  DomainDataset source = MakeDomain("A", {MakeReview(0, 1, 5)});
  CrossDomainDataset cross(source, MakeDomain("B", {MakeReview(1, 2, 5)}));
  EXPECT_TRUE(cross.overlapping_users().empty());
  CrossDomainDataset grown(
      source, MakeDomain("B", {MakeReview(1, 2, 5), MakeReview(0, 3, 4)}));
  EXPECT_EQ(grown.overlapping_users(), (std::vector<int>{0}));
  EXPECT_TRUE(cross.overlapping_users().empty());
}

}  // namespace
}  // namespace data
}  // namespace omnimatch
