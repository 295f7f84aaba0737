#include "text/token_table.h"

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "text/tokenizer.h"

namespace omnimatch {
namespace text {
namespace {

/// A column over `texts`; `counted` marks the records that build the
/// vocabulary (all of them when empty).
TextColumn Column(const std::vector<std::string>& texts,
                  const std::vector<bool>& counted = {}) {
  TextColumn column;
  column.num_records = texts.size();
  column.text = [&texts](size_t r) { return std::string_view(texts[r]); };
  column.counted = [&counted](size_t r) {
    return counted.empty() || counted[r];
  };
  return column;
}

TEST(TokenTableTest, EmptyReviewGivesEmptySpan) {
  const std::vector<std::string> texts = {"", "good book", "?!...", ""};
  Vocabulary vocab;
  std::vector<TokenTable> tables = TokenizeColumns({Column(texts)}, 1, &vocab);
  ASSERT_EQ(tables.size(), 1u);
  const TokenTable& table = tables[0];
  ASSERT_EQ(table.num_records(), 4u);
  EXPECT_TRUE(table.Record(0).empty());
  EXPECT_EQ(table.Record(1).size(), 2u);
  EXPECT_TRUE(table.Record(2).empty());
  EXPECT_TRUE(table.Record(3).empty());
  EXPECT_EQ(table.num_tokens(), 2u);
}

TEST(TokenTableTest, OutOfVocabularyTokensMapToUnk) {
  // Record 0 is not counted: its tokens are tokenized but build no ids.
  // With min_count 2, "rare" is seen once and "seen" twice.
  const std::vector<std::string> texts = {"hidden seen", "rare seen",
                                          "seen twice twice"};
  Vocabulary vocab;
  std::vector<TokenTable> tables = TokenizeColumns(
      {Column(texts, {false, true, true})}, 2, &vocab);
  const TokenTable& table = tables[0];
  EXPECT_FALSE(vocab.Contains("hidden"));
  EXPECT_FALSE(vocab.Contains("rare"));
  EXPECT_EQ(std::vector<int>(table.Record(0).begin(), table.Record(0).end()),
            (std::vector<int>{Vocabulary::kUnkId, vocab.IdOf("seen")}));
  EXPECT_EQ(table.Record(1)[0], Vocabulary::kUnkId);
  EXPECT_EQ(table.Record(2)[1], vocab.IdOf("twice"));
  for (int id : table.ids()) {
    EXPECT_GE(id, Vocabulary::kUnkId);
    EXPECT_LT(id, vocab.size());
  }
}

TEST(TokenTableTest, IdsFollowFirstCountedOccurrence) {
  // "zeta" and "alpha" first appear in an uncounted record; ids follow the
  // first COUNTED occurrence, across columns in order.
  const std::vector<std::string> first = {"zeta alpha", "beta"};
  const std::vector<std::string> second = {"gamma alpha", "zeta"};
  Vocabulary vocab;
  TokenizeColumns({Column(first, {false, true}), Column(second)}, 1, &vocab);
  ASSERT_EQ(vocab.size(), 6);
  EXPECT_EQ(vocab.TokenOf(2), "beta");
  EXPECT_EQ(vocab.TokenOf(3), "gamma");
  EXPECT_EQ(vocab.TokenOf(4), "alpha");
  EXPECT_EQ(vocab.TokenOf(5), "zeta");
}

TEST(TokenTableTest, OffsetsAreMonotone) {
  Rng rng(7);
  const char* words[] = {"a", "bb", "ccc", "dd-dd", "!!", "E"};
  std::vector<std::string> texts(200);
  for (std::string& text : texts) {
    const uint32_t n = rng.UniformU32(6);
    for (uint32_t i = 0; i < n; ++i) {
      text += words[rng.UniformU32(6)];
      text += ' ';
    }
  }
  Vocabulary vocab;
  const TokenTable table =
      std::move(TokenizeColumns({Column(texts)}, 1, &vocab)[0]);
  const std::vector<uint32_t>& offsets = table.offsets();
  ASSERT_EQ(offsets.size(), texts.size() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), table.num_tokens());
  for (size_t r = 0; r < texts.size(); ++r) {
    ASSERT_LE(offsets[r], offsets[r + 1]) << r;
    // Each span is exactly the record's tokens, encoded.
    EXPECT_EQ(std::vector<int>(table.Record(r).begin(), table.Record(r).end()),
              vocab.Encode(Tokenize(texts[r])))
        << r;
  }
}

}  // namespace
}  // namespace text
}  // namespace omnimatch
