#include "text/document.h"

#include <string_view>

#include <gtest/gtest.h>

namespace omnimatch {
namespace text {
namespace {

/// A one-column table over `reviews`. Only the first `counted` reviews
/// build the vocabulary; later ones are tokenized against it.
TokenTable MakeTable(const std::vector<std::string_view>& reviews,
                     size_t counted, Vocabulary* vocab) {
  TextColumn column;
  column.num_records = reviews.size();
  column.text = [&](size_t r) { return reviews[r]; };
  column.counted = [&](size_t r) { return r < counted; };
  return std::move(TokenizeColumns({column}, 1, vocab)[0]);
}

const std::vector<std::string_view> kReviews = {
    "Great movie!", "awful BOOK", "great movie awful book great movie",
    "mysterious artifact"};

TEST(DocumentTest, BuildDocumentConcatenatesRecords) {
  Vocabulary v;
  TokenTable table = MakeTable(kReviews, 3, &v);
  std::vector<int> records = {0, 1};
  auto ids = BuildDocument(table, records, 6);
  EXPECT_EQ(ids, (std::vector<int>{v.IdOf("great"), v.IdOf("movie"),
                                   v.IdOf("awful"), v.IdOf("book"),
                                   Vocabulary::kPadId, Vocabulary::kPadId}));
  // Records are concatenated in the order given, not in table order.
  records = {1, 0};
  ids = BuildDocument(table, records, 4);
  EXPECT_EQ(ids, (std::vector<int>{v.IdOf("awful"), v.IdOf("book"),
                                   v.IdOf("great"), v.IdOf("movie")}));
}

TEST(DocumentTest, PadsShortDocuments) {
  Vocabulary v;
  TokenTable table = MakeTable(kReviews, 3, &v);
  std::vector<int> records = {0};
  auto ids = BuildDocument(table, records, 5);
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_NE(ids[0], Vocabulary::kPadId);
  EXPECT_NE(ids[1], Vocabulary::kPadId);
  EXPECT_EQ(ids[2], Vocabulary::kPadId);
  EXPECT_EQ(ids[4], Vocabulary::kPadId);
}

TEST(DocumentTest, TruncatesLongDocuments) {
  Vocabulary v;
  TokenTable table = MakeTable(kReviews, 3, &v);
  std::vector<int> records = {2};
  auto ids = BuildDocument(table, records, 3);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], v.IdOf("great"));
  EXPECT_EQ(ids[2], v.IdOf("awful"));
  // Truncation inside a later record keeps the earlier records whole.
  records = {1, 2};
  ids = BuildDocument(table, records, 3);
  EXPECT_EQ(ids, (std::vector<int>{v.IdOf("awful"), v.IdOf("book"),
                                   v.IdOf("great")}));
}

TEST(DocumentTest, UnknownTokensBecomeUnk) {
  Vocabulary v;
  TokenTable table = MakeTable(kReviews, 3, &v);
  std::vector<int> records = {3};
  auto ids = BuildDocument(table, records, 4);
  EXPECT_EQ(ids[0], Vocabulary::kUnkId);
  EXPECT_EQ(ids[1], Vocabulary::kUnkId);
  EXPECT_EQ(ids[2], Vocabulary::kPadId);
}

TEST(DocumentTest, EmptyReviewsAllPad) {
  Vocabulary v;
  TokenTable table = MakeTable(kReviews, 3, &v);
  auto ids = BuildDocument(table, {}, 4);
  ASSERT_EQ(ids.size(), 4u);
  for (int id : ids) EXPECT_EQ(id, Vocabulary::kPadId);
}

TEST(DocumentTest, ExactLengthNoPadding) {
  Vocabulary v;
  TokenTable table = MakeTable(kReviews, 3, &v);
  std::vector<int> records = {0};
  auto ids = BuildDocument(table, records, 2);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[1], v.IdOf("movie"));
}

}  // namespace
}  // namespace text
}  // namespace omnimatch
