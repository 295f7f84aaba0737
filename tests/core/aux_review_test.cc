#include "core/aux_review.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "data/test_domain.h"

namespace omnimatch {
namespace core {
namespace {

data::Review MakeReview(int user, int item, float rating,
                        const std::string& summary) {
  data::Review r;
  r.user_id = user;
  r.item_id = item;
  r.rating = rating;
  r.summary = summary;
  r.full_text = "full " + summary;
  return r;
}

// A hand-built scenario mirroring the §5.10 case study:
// cold user 0 rated source item 1 with 5.0; users 1 and 2 did too (like-
// minded); user 3 rated it 2.0 (not like-minded). Users 1-3 have target
// reviews; user 4 is overlapping but never co-rated with user 0.
data::CrossDomainDataset CaseStudyCross() {
  return data::CrossDomainDataset(
      data::MakeDomain("Books", {MakeReview(0, 1, 5, "vampire romance"),
                                 MakeReview(0, 2, 3, "boring history"),
                                 MakeReview(1, 1, 5, "fangtastic"),
                                 MakeReview(2, 1, 5, "loved it"),
                                 MakeReview(3, 1, 2, "awful"),
                                 MakeReview(4, 2, 3, "mediocre")}),
      data::MakeDomain("Movies",
                       {MakeReview(1, 101, 5, "great vampire movie"),
                        MakeReview(1, 102, 4, "spooky fun"),
                        MakeReview(2, 103, 5, "crouching tiger"),
                        MakeReview(3, 104, 1, "terrible"),
                        MakeReview(4, 105, 3, "fine")}));
}

TEST(AuxReviewTest, BorrowsOnlyFromLikeMindedEligibleUsers) {
  data::CrossDomainDataset cross = CaseStudyCross();
  AuxReviewGenerator generator(&cross, /*eligible=*/{1, 2, 3, 4});
  Rng rng(1);
  AuxReviewTrace trace;
  auto reviews = generator.GenerateForUser(0, &rng, &trace);

  ASSERT_EQ(trace.choices.size(), 2u);  // one per source record of user 0
  // Record for item 1 (rating 5): like-minded = {1, 2} only.
  const AuxReviewChoice& c0 = trace.choices[0];
  EXPECT_EQ(c0.source_item, 1);
  EXPECT_EQ(c0.num_like_minded, 2);
  EXPECT_TRUE(c0.like_minded_user == 1 || c0.like_minded_user == 2);
  EXPECT_FALSE(c0.aux_review.empty());
  // The borrowed review must be one the like-minded user wrote in the
  // TARGET domain.
  std::set<std::string> valid_targets = {
      "great vampire movie", "spooky fun", "crouching tiger"};
  EXPECT_EQ(valid_targets.count(c0.aux_review), 1u);

  // Record for item 2 (rating 3): user 4 also rated item 2 but with 3.0 ->
  // like-minded; user 4 has target reviews.
  const AuxReviewChoice& c1 = trace.choices[1];
  EXPECT_EQ(c1.source_item, 2);
  EXPECT_EQ(c1.num_like_minded, 1);
  EXPECT_EQ(c1.like_minded_user, 4);
  EXPECT_EQ(c1.aux_review, "fine");

  EXPECT_EQ(reviews.size(), 2u);
}

TEST(AuxReviewTest, ExcludesSelfFromLikeMindedPool) {
  data::CrossDomainDataset cross = CaseStudyCross();
  // User 1 is eligible; generating FOR user 1 must not pick user 1.
  AuxReviewGenerator generator(&cross, {1, 2, 3, 4});
  Rng rng(2);
  AuxReviewTrace trace;
  generator.GenerateForUser(1, &rng, &trace);
  for (const auto& choice : trace.choices) {
    EXPECT_NE(choice.like_minded_user, 1);
  }
}

TEST(AuxReviewTest, IneligibleUsersNeverBorrowedFrom) {
  data::CrossDomainDataset cross = CaseStudyCross();
  // Only user 2 eligible: all borrowed reviews must be user 2's.
  AuxReviewGenerator generator(&cross, {2});
  Rng rng(3);
  AuxReviewTrace trace;
  auto reviews = generator.GenerateForUser(0, &rng, &trace);
  for (const auto& r : reviews) EXPECT_EQ(r, "crouching tiger");
  EXPECT_EQ(trace.choices[1].num_like_minded, 0);  // user 4 not eligible
}

TEST(AuxReviewTest, NoLikeMindedYieldsEmpty) {
  data::CrossDomainDataset cross = CaseStudyCross();
  AuxReviewGenerator generator(&cross, {3});  // user 3 rated item1 with 2.0
  Rng rng(4);
  auto reviews = generator.GenerateForUser(0, &rng);
  EXPECT_TRUE(reviews.empty());
}

TEST(AuxReviewTest, ZeroLikeMindedTraceRecordsEveryRecord) {
  // Algorithm 1 edge case: a cold user whose co-raters never overlap with
  // the eligible pool. The trace must still log one choice per source
  // record, each marked as having no like-minded user.
  data::CrossDomainDataset cross = CaseStudyCross();
  AuxReviewGenerator generator(&cross, {3});
  Rng rng(4);
  AuxReviewTrace trace;
  auto reviews = generator.GenerateForUser(0, &rng, &trace);
  EXPECT_TRUE(reviews.empty());
  ASSERT_EQ(trace.choices.size(), 2u);  // user 0 has 2 source records
  for (const AuxReviewChoice& c : trace.choices) {
    EXPECT_EQ(c.num_like_minded, 0);
    EXPECT_EQ(c.like_minded_user, -1);
    EXPECT_TRUE(c.aux_review.empty());
    EXPECT_EQ(c.target_item, -1);
  }
}

TEST(AuxReviewTest, LikeMindedUserWithoutTargetRecordsEmitsNoReview) {
  // Algorithm 1 edge case: the selected like-minded user exists in the
  // source domain but wrote nothing in the target domain. The trace records
  // the selection; no auxiliary review is produced.
  data::CrossDomainDataset cross(
      data::MakeDomain("Books",
                       {MakeReview(0, 1, 5, "cold user loved it"),
                        MakeReview(9, 1, 5, "silent user loved it too")}),
      // User 9 has NO target reviews; some other user keeps the domain
      // non-empty.
      data::MakeDomain("Movies", {MakeReview(8, 101, 3, "unrelated")}));

  AuxReviewGenerator generator(&cross, {9});
  Rng rng(6);
  AuxReviewTrace trace;
  auto reviews = generator.GenerateForUser(0, &rng, &trace);
  EXPECT_TRUE(reviews.empty());
  ASSERT_EQ(trace.choices.size(), 1u);
  EXPECT_EQ(trace.choices[0].num_like_minded, 1);
  EXPECT_EQ(trace.choices[0].like_minded_user, 9);
  EXPECT_TRUE(trace.choices[0].aux_review.empty());
  EXPECT_EQ(trace.choices[0].target_item, -1);
}

TEST(AuxReviewTest, TraceDeterministicGivenRngSeed) {
  // Same seed -> same like-minded picks and same borrowed reviews, record
  // by record (stronger than comparing only the returned texts).
  data::SyntheticConfig config;
  config.num_users = 80;
  config.items_per_domain = 40;
  config.seed = 9;
  data::SyntheticWorld world(config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(1);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  AuxReviewGenerator generator(&cross, split.train_users);
  for (int user : {split.test_users[0], split.test_users[1]}) {
    Rng rng_a(123), rng_b(123);
    AuxReviewTrace trace_a, trace_b;
    auto reviews_a = generator.GenerateForUser(user, &rng_a, &trace_a);
    auto reviews_b = generator.GenerateForUser(user, &rng_b, &trace_b);
    EXPECT_EQ(reviews_a, reviews_b);
    ASSERT_EQ(trace_a.choices.size(), trace_b.choices.size());
    for (size_t i = 0; i < trace_a.choices.size(); ++i) {
      EXPECT_EQ(trace_a.choices[i].like_minded_user,
                trace_b.choices[i].like_minded_user);
      EXPECT_EQ(trace_a.choices[i].target_item,
                trace_b.choices[i].target_item);
      EXPECT_EQ(trace_a.choices[i].aux_review,
                trace_b.choices[i].aux_review);
    }
  }
}

TEST(AuxReviewTest, RespectsTextFieldSelection) {
  data::CrossDomainDataset cross = CaseStudyCross();
  AuxReviewGenerator generator(&cross, {2}, TextField::kFullText);
  Rng rng(5);
  auto reviews = generator.GenerateForUser(0, &rng);
  ASSERT_FALSE(reviews.empty());
  EXPECT_EQ(reviews[0].rfind("full ", 0), 0u);
}

TEST(AuxReviewTest, DeterministicGivenRngSeed) {
  data::SyntheticConfig config;
  config.num_users = 80;
  config.items_per_domain = 40;
  config.seed = 9;
  data::SyntheticWorld world(config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(1);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  AuxReviewGenerator generator(&cross, split.train_users);
  Rng rng_a(7), rng_b(7);
  EXPECT_EQ(generator.GenerateForUser(split.test_users[0], &rng_a),
            generator.GenerateForUser(split.test_users[0], &rng_b));
}

TEST(AuxReviewTest, GenerateAllCoversEveryUser) {
  data::SyntheticConfig config;
  config.num_users = 80;
  config.items_per_domain = 40;
  config.seed = 9;
  data::SyntheticWorld world(config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(1);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  AuxReviewGenerator generator(&cross, split.train_users);
  Rng rng(11);
  auto all = generator.GenerateAll(split.test_users, &rng);
  ASSERT_EQ(all.size(), split.test_users.size());
  // On a dense synthetic corpus nearly every cold user should get at least
  // one auxiliary review.
  size_t nonempty = 0;
  for (const auto& docs : all) {
    if (!docs.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, all.size() * 3 / 4);
}

TEST(AuxReviewTest, OneReviewPerUsableSourceRecord) {
  data::SyntheticConfig config;
  config.num_users = 100;
  config.items_per_domain = 30;  // dense -> like-minded users plentiful
  config.seed = 13;
  data::SyntheticWorld world(config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(2);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  AuxReviewGenerator generator(&cross, split.train_users);
  Rng rng(17);
  int user = split.test_users[0];
  AuxReviewTrace trace;
  auto reviews = generator.GenerateForUser(user, &rng, &trace);
  EXPECT_EQ(trace.choices.size(),
            cross.source().RecordsOfUser(user).size());
  EXPECT_LE(reviews.size(), trace.choices.size());
}

/// The pre-CSR implementation of Algorithm 1's inner loop, kept here as the
/// executable specification: scan the raw (item, rating) bucket, filter by
/// eligibility and self per record, draw from the materialized list. The
/// production CSR path must consume the identical RNG stream and produce
/// the identical trace.
std::vector<std::string> ReferenceScanGenerate(
    const data::CrossDomainDataset& cross,
    const std::vector<int>& eligible_sorted, TextField field, int user_id,
    Rng* rng, AuxReviewTrace* trace) {
  const data::DomainDataset& source = cross.source();
  const data::DomainDataset& target = cross.target();
  std::set<int> eligible(eligible_sorted.begin(), eligible_sorted.end());
  auto text_of = [&](const data::DomainDataset& d, int idx) {
    size_t i = static_cast<size_t>(idx);
    return std::string(field == TextField::kSummary ? d.ReviewSummary(i)
                                                    : d.ReviewFullText(i));
  };
  if (trace != nullptr) {
    trace->user_id = user_id;
    trace->choices.clear();
  }
  std::vector<std::string> out;
  for (int rec_idx : source.RecordsOfUser(user_id)) {
    size_t ri = static_cast<size_t>(rec_idx);
    AuxReviewChoice choice;
    choice.source_item = source.ReviewItem(ri);
    choice.rating = source.ReviewRating(ri);
    choice.source_review = text_of(source, rec_idx);
    std::vector<int> like_minded;
    for (int v : source.UsersWhoRated(choice.source_item, choice.rating)) {
      if (v != user_id && eligible.count(v) > 0) like_minded.push_back(v);
    }
    choice.num_like_minded = static_cast<int>(like_minded.size());
    if (!like_minded.empty()) {
      int aux_user = like_minded[rng->UniformU32(
          static_cast<uint32_t>(like_minded.size()))];
      choice.like_minded_user = aux_user;
      data::IdSpan aux_records = target.RecordsOfUser(aux_user);
      if (!aux_records.empty()) {
        int aux_idx = aux_records[rng->UniformU32(
            static_cast<uint32_t>(aux_records.size()))];
        choice.target_item = target.ReviewItem(static_cast<size_t>(aux_idx));
        choice.aux_review = text_of(target, aux_idx);
        out.push_back(choice.aux_review);
      }
    }
    if (trace != nullptr) trace->choices.push_back(std::move(choice));
  }
  return out;
}

void ExpectTracesEqual(const AuxReviewTrace& a, const AuxReviewTrace& b) {
  EXPECT_EQ(a.user_id, b.user_id);
  ASSERT_EQ(a.choices.size(), b.choices.size());
  for (size_t i = 0; i < a.choices.size(); ++i) {
    EXPECT_EQ(a.choices[i].source_item, b.choices[i].source_item) << i;
    EXPECT_EQ(a.choices[i].rating, b.choices[i].rating) << i;
    EXPECT_EQ(a.choices[i].source_review, b.choices[i].source_review) << i;
    EXPECT_EQ(a.choices[i].num_like_minded, b.choices[i].num_like_minded)
        << i;
    EXPECT_EQ(a.choices[i].like_minded_user, b.choices[i].like_minded_user)
        << i;
    EXPECT_EQ(a.choices[i].target_item, b.choices[i].target_item) << i;
    EXPECT_EQ(a.choices[i].aux_review, b.choices[i].aux_review) << i;
  }
}

/// Generates for every cold user of an AmazonLike world through the CSR
/// path and the reference scan, and requires equal texts and traces, RNG
/// draw for RNG draw. With `per_user_seeds` each user gets a fresh stream
/// (as GenerateAll seeds it); otherwise one stream runs through all users.
void ExpectCsrMatchesScanOnAmazonLike(std::vector<std::string> domains,
                                      uint64_t split_seed,
                                      bool per_user_seeds) {
  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike(),
                             std::move(domains));
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(split_seed);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  AuxReviewGenerator generator(&cross, split.train_users);

  Rng rng_csr(2024), rng_ref(2024);
  for (int user : split.test_users) {
    if (per_user_seeds) {
      rng_csr = Rng(AuxReviewGenerator::PerUserSeed(2024, user));
      rng_ref = rng_csr;
    }
    AuxReviewTrace trace_csr, trace_ref;
    auto reviews_csr = generator.GenerateForUser(user, &rng_csr, &trace_csr);
    auto reviews_ref =
        ReferenceScanGenerate(cross, split.train_users, TextField::kSummary,
                              user, &rng_ref, &trace_ref);
    EXPECT_EQ(reviews_csr, reviews_ref) << "user " << user;
    ExpectTracesEqual(trace_csr, trace_ref);
    if (per_user_seeds) {
      EXPECT_EQ(rng_csr.NextU32(), rng_ref.NextU32()) << "user " << user;
    }
  }
  // Both paths consumed the same number of draws: the streams stay aligned.
  EXPECT_EQ(rng_csr.NextU32(), rng_ref.NextU32());
}

TEST(AuxReviewTest, CsrPathBitIdenticalToReferenceScanOnTable2Config) {
  // The Table-2 pin: on the AmazonLike world, every cold user's trace —
  // choices, picked users, borrowed texts — must match the reference scan
  // implementation exactly. The second input is a two-domain world (other
  // user latents), another split and per-user streams.
  {
    SCOPED_TRACE("three domains, split seed 1, one stream");
    ExpectCsrMatchesScanOnAmazonLike({"Books", "Movies", "Music"}, 1, false);
  }
  {
    SCOPED_TRACE("two domains, split seed 12, per-user streams");
    ExpectCsrMatchesScanOnAmazonLike({"Books", "Movies"}, 12, true);
  }
}

TEST(AuxReviewTest, SelfExclusionBitIdenticalWhenColdUserIsEligible) {
  // The index-remapping edge case: the generated-for user sits inside the
  // eligible bucket (self-simulation during training). Cover self at the
  // bucket's front, middle and back.
  data::CrossDomainDataset cross = CaseStudyCross();
  std::vector<int> eligible = {0, 1, 2, 3, 4};
  AuxReviewGenerator generator(&cross, eligible);
  for (int user : {0, 1, 2}) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      Rng rng_csr(seed), rng_ref(seed);
      AuxReviewTrace trace_csr, trace_ref;
      auto reviews_csr =
          generator.GenerateForUser(user, &rng_csr, &trace_csr);
      auto reviews_ref = ReferenceScanGenerate(
          cross, eligible, TextField::kSummary, user, &rng_ref, &trace_ref);
      EXPECT_EQ(reviews_csr, reviews_ref) << "user " << user << " seed "
                                          << seed;
      ExpectTracesEqual(trace_csr, trace_ref);
    }
  }
}

TEST(AuxReviewTest, ParallelGenerateAllMatchesPerUserSeeds) {
  data::SyntheticConfig config;
  config.num_users = 80;
  config.items_per_domain = 40;
  config.seed = 9;
  data::SyntheticWorld world(config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(1);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  AuxReviewGenerator generator(&cross, split.train_users);

  const uint64_t base_seed = 0xfeedULL;
  auto parallel = generator.GenerateAll(split.test_users, base_seed);
  ASSERT_EQ(parallel.size(), split.test_users.size());
  for (size_t i = 0; i < split.test_users.size(); ++i) {
    int u = split.test_users[i];
    Rng rng(AuxReviewGenerator::PerUserSeed(base_seed, u));
    EXPECT_EQ(parallel[i], generator.GenerateForUser(u, &rng)) << "user " << u;
  }
}

TEST(AuxReviewTest, ParallelGenerateAllIsThreadCountInvariant) {
  data::SyntheticConfig config;
  config.num_users = 100;
  config.items_per_domain = 30;
  config.seed = 13;
  data::SyntheticWorld world(config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(2);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  AuxReviewGenerator generator(&cross, split.train_users);

  SetNumThreads(1);
  auto serial = generator.GenerateAll(split.test_users, 42u);
  SetNumThreads(4);
  auto parallel = generator.GenerateAll(split.test_users, 42u);
  SetNumThreads(0);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace core
}  // namespace omnimatch
