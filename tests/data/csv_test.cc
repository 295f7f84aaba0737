#include "data/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/test_domain.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace data {
namespace {

std::string TempPath(const std::string& name) {
  return testing_util::TestTempDir() + "/" + name;
}

TEST(CsvTest, RoundTripPreservesRecords) {
  SyntheticConfig config;
  config.num_users = 30;
  config.items_per_domain = 20;
  config.mean_reviews_per_user = 3;
  SyntheticWorld world(config);
  const DomainDataset& original = world.domain("Books");

  std::string path = TempPath("books_roundtrip.tsv");
  ASSERT_TRUE(SaveDomainTsv(original, path).ok());
  auto loaded = LoadDomainTsv(path, "Books");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const DomainDataset& copy = loaded.value();
  ASSERT_EQ(copy.num_reviews(), original.num_reviews());
  for (size_t i = 0; i < copy.num_reviews(); ++i) {
    EXPECT_EQ(copy.ReviewUser(i), original.ReviewUser(i));
    EXPECT_EQ(copy.ReviewItem(i), original.ReviewItem(i));
    EXPECT_EQ(copy.ReviewRating(i), original.ReviewRating(i));
    EXPECT_EQ(copy.ReviewSummary(i), original.ReviewSummary(i));
  }
  EXPECT_EQ(copy.name(), "Books");
  std::remove(path.c_str());
}

TEST(CsvTest, TabsAndNewlinesRoundTripViaEscaping) {
  Review r;
  r.user_id = 1;
  r.item_id = 2;
  r.rating = 4;
  // Every structural character plus a literal backslash and a literal
  // two-character "\t" that must survive unchanged.
  r.summary = "line\none\ttabbed\rback\\slash and literal \\t end";
  r.full_text = r.summary;
  DomainDataset d = MakeDomain("X", {r});
  std::string path = TempPath("escape_roundtrip.tsv");
  ASSERT_TRUE(SaveDomainTsv(d, path).ok());
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().ReviewSummary(0), r.summary);
  EXPECT_EQ(loaded.value().ReviewFullText(0), r.full_text);
  std::remove(path.c_str());
}

TEST(CsvTest, EscapedFileStaysOneLinePerRecord) {
  Review r;
  r.user_id = 1;
  r.item_id = 2;
  r.rating = 4;
  r.summary = "a\nb";
  r.full_text = "c\td";
  DomainDataset d = MakeDomain("X", {r});
  std::string path = TempPath("escape_lines.tsv");
  ASSERT_TRUE(SaveDomainTsv(d, path).ok());
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2);  // header + one record
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  auto loaded = LoadDomainTsv("/nonexistent/dir/file.tsv", "X");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, MissingHeaderRejected) {
  std::string path = TempPath("noheader.tsv");
  std::ofstream(path) << "1\t2\t5\ttext\ttext\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CsvTest, MalformedRowRejectedWithLineNumber) {
  std::string path = TempPath("badrow.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << "1\t2\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, TrailingGarbageInNumericFieldRejected) {
  // std::atoi would silently read "3x" as rating 3; the checked parser must
  // reject the row and point at it.
  std::string path = TempPath("trailgarbage.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << "1\t2\t3x\ttext\ttext\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(":2:"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("rating"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, NonNumericUserIdRejected) {
  std::string path = TempPath("badid.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << "u7\t2\t3\ttext\ttext\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("user_id"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, IntegerOverflowRejected) {
  // 99999999999 overflows int32; atoi's behaviour is undefined, the checked
  // parser reports out-of-range as a bad field.
  std::string path = TempPath("overflow.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << "99999999999\t2\t3\ttext\ttext\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CsvTest, WhitespacePaddedNumericFieldRejected) {
  std::string path = TempPath("wspad.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << " 1\t2\t3\ttext\ttext\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CsvTest, OutOfRangeRatingRejected) {
  std::string path = TempPath("badrating.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << "1\t2\t9\ttext\ttext\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CsvTest, NanRatingRejectedWithLineNumber) {
  // "nan" parses as a float and fails both halves of `r < 1 || r > 5`; the
  // row must be rejected as a bad rating, not reach the dataset.
  std::string path = TempPath("nanrating.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << "1\t2\t4\ttext\ttext\n"
                      << "1\t3\tnan\ttext\ttext\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(":3:"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("rating"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, FourFieldRowUsesSummaryAsFullText) {
  std::string path = TempPath("fourfields.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\n"
                      << "1\t2\t4\tshort review\n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().ReviewFullText(0), "short review");
  std::remove(path.c_str());
}

TEST(CsvTest, BlankLinesSkipped) {
  std::string path = TempPath("blanks.tsv");
  std::ofstream(path) << "user_id\titem_id\trating\tsummary\tfull_text\n"
                      << "\n"
                      << "1\t2\t4\ta\tb\n"
                      << "   \n";
  auto loaded = LoadDomainTsv(path, "X");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_reviews(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace data
}  // namespace omnimatch
