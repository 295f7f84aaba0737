#include "text/vocabulary.h"

#include <cstdio>
#include <string_view>

#include <gtest/gtest.h>

#include "test_util/temp_dir.h"
#include "text/token_table.h"

namespace omnimatch {
namespace text {
namespace {

TEST(VocabularyTest, ReservedIds) {
  Vocabulary v;
  EXPECT_EQ(v.size(), 2);
  EXPECT_EQ(v.TokenOf(Vocabulary::kPadId), "<pad>");
  EXPECT_EQ(v.TokenOf(Vocabulary::kUnkId), "<unk>");
}

TEST(VocabularyTest, AddTokenIsIdempotent) {
  Vocabulary v;
  int id1 = v.AddToken("vampire");
  int id2 = v.AddToken("vampire");
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(v.size(), 3);
}

TEST(VocabularyTest, UnknownMapsToUnk) {
  Vocabulary v;
  v.AddToken("known");
  EXPECT_EQ(v.IdOf("unknown"), Vocabulary::kUnkId);
  EXPECT_NE(v.IdOf("known"), Vocabulary::kUnkId);
  EXPECT_TRUE(v.Contains("known"));
  EXPECT_FALSE(v.Contains("unknown"));
}

/// A one-column TokenizeColumns input over `docs`, every record counted.
TextColumn CountedColumn(const std::vector<std::string>& docs) {
  TextColumn column;
  column.num_records = docs.size();
  column.text = [&docs](size_t r) { return std::string_view(docs[r]); };
  column.counted = [](size_t) { return true; };
  return column;
}

TEST(VocabularyTest, TokenizeColumnsWithMinCount) {
  Vocabulary v;
  const std::vector<std::string> docs = {"rare common", "common"};
  TokenizeColumns({CountedColumn(docs)}, /*min_count=*/2, &v);
  EXPECT_TRUE(v.Contains("common"));
  EXPECT_FALSE(v.Contains("rare"));
}

TEST(VocabularyTest, TokenizeColumnsIsDeterministic) {
  Vocabulary a, b;
  const std::vector<std::string> docs = {"x y", "z x"};
  TokenizeColumns({CountedColumn(docs)}, 1, &a);
  TokenizeColumns({CountedColumn(docs)}, 1, &b);
  EXPECT_EQ(a.IdOf("x"), b.IdOf("x"));
  EXPECT_EQ(a.IdOf("z"), b.IdOf("z"));
}

TEST(VocabularyTest, EncodeMixedKnownUnknown) {
  Vocabulary v;
  v.AddToken("good");
  auto ids = v.Encode({"good", "mystery", "good"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_EQ(ids[1], Vocabulary::kUnkId);
}

TEST(VocabularyTest, SaveLoadRoundTrip) {
  Vocabulary v;
  v.AddToken("alpha");
  v.AddToken("beta");
  std::string path = testing_util::TestTempDir() + "/vocab_roundtrip.txt";
  ASSERT_TRUE(v.Save(path).ok());
  auto loaded = Vocabulary::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), v.size());
  EXPECT_EQ(loaded.value().IdOf("beta"), v.IdOf("beta"));
  std::remove(path.c_str());
}

TEST(VocabularyTest, LoadRejectsGarbage) {
  std::string path = testing_util::TestTempDir() + "/vocab_garbage.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("not-a-vocab\nfile\n", f);
  fclose(f);
  auto loaded = Vocabulary::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(VocabularyTest, LoadMissingFileFails) {
  auto loaded = Vocabulary::Load("/nonexistent/vocab.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace text
}  // namespace omnimatch
