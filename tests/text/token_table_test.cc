#include "text/token_table.h"

#include <cctype>
#include <map>
#include <string>
#include <vector>

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

/// What TokenizeColumns must return, from Tokenize and first-occurrence
/// interning: each column's ids by record, and the vocabulary's tokens.
struct Expected {
  std::vector<std::vector<std::vector<int>>> ids;  // [column][record]
  std::vector<std::string> vocab;
};

Expected Reference(const std::vector<std::vector<std::string>>& columns,
                   const std::vector<std::vector<bool>>& counted,
                   int min_count) {
  std::map<std::string, int> counts;
  std::vector<std::string> first_counted;
  for (size_t c = 0; c < columns.size(); ++c) {
    for (size_t r = 0; r < columns[c].size(); ++r) {
      if (!counted[c][r]) continue;
      for (const std::string& token : Tokenize(columns[c][r])) {
        if (counts[token]++ == 0) first_counted.push_back(token);
      }
    }
  }
  Expected expected;
  std::map<std::string, int> id_of;
  expected.vocab = {"<pad>", "<unk>"};
  for (const std::string& token : first_counted) {
    if (counts[token] < min_count) continue;
    id_of[token] = static_cast<int>(expected.vocab.size());
    expected.vocab.push_back(token);
  }
  for (const std::vector<std::string>& texts : columns) {
    expected.ids.emplace_back();
    for (const std::string& text : texts) {
      std::vector<int> ids;
      for (const std::string& token : Tokenize(text)) {
        auto it = id_of.find(token);
        ids.push_back(it == id_of.end() ? Vocabulary::kUnkId : it->second);
      }
      expected.ids.back().push_back(std::move(ids));
    }
  }
  return expected;
}

TEST(TokenTableTest, MatchesTokenizeOnAdversarialText) {
  // The one-pass tokenizer's byte classes are those of <cctype> in the
  // "C" locale: letters and digits, lowercased; every other byte splits.
  for (int c = 0; c < 256; ++c) {
    const std::vector<std::string> tokens =
        Tokenize(std::string(1, static_cast<char>(c)));
    if (std::isalnum(c)) {
      ASSERT_EQ(tokens,
                std::vector<std::string>{std::string(
                    1, static_cast<char>(std::tolower(c)))})
          << c;
    } else {
      ASSERT_TRUE(tokens.empty()) << c;
    }
  }

  // Hand-picked edge cases, then random strings over an alphabet of mixed
  // case, digits, punctuation runs, whitespace and bytes >= 0x80.
  std::vector<std::string> first = {
      "",
      "Good BOOK good book",
      "  leading and trailing  ",
      "...punct---runs!!!and,,,more???",
      "42 4two FOUR2 42",
      "caf\xc3\xa9 na\xefve \xff\x80mixed\x80" "Case",
      "\t\n\r\v\f",
      "a",
      "",
      "UPPER lower MiXeD upper LOWER mixed",
  };
  std::vector<std::string> second = {"", "book BOOK b00k", "\x80\x81"};
  const std::string alphabet =
      "aAbBzZ09 5,.-!?\t\n\x80\xc3\xa9\xffqQ";
  Rng rng(2024);
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const uint32_t len = rng.UniformU32(40);
    for (uint32_t k = 0; k < len; ++k) {
      text.push_back(alphabet[rng.UniformU32(
          static_cast<uint32_t>(alphabet.size()))]);
    }
    (i % 3 == 0 ? second : first).push_back(std::move(text));
  }
  std::vector<bool> counted_first(first.size(), true);
  std::vector<bool> counted_second(second.size());
  for (size_t r = 0; r < second.size(); ++r) counted_second[r] = r % 2 == 0;

  for (int min_count : {1, 2}) {
    SCOPED_TRACE(min_count);
    const Expected expected =
        Reference({first, second}, {counted_first, counted_second}, min_count);
    Vocabulary vocab;
    const std::vector<TokenTable> tables = TokenizeColumns(
        {Column(first, counted_first), Column(second, counted_second)},
        min_count, &vocab);
    ASSERT_EQ(vocab.size(), static_cast<int>(expected.vocab.size()));
    for (int id = 0; id < vocab.size(); ++id) {
      EXPECT_EQ(vocab.TokenOf(id), expected.vocab[static_cast<size_t>(id)]);
    }
    ASSERT_EQ(tables.size(), 2u);
    for (size_t c = 0; c < tables.size(); ++c) {
      ASSERT_EQ(tables[c].num_records(), expected.ids[c].size());
      for (size_t r = 0; r < expected.ids[c].size(); ++r) {
        EXPECT_EQ(std::vector<int>(tables[c].Record(r).begin(),
                                   tables[c].Record(r).end()),
                  expected.ids[c][r])
            << "column " << c << " record " << r;
      }
    }
  }
}

}  // namespace
}  // namespace text
}  // namespace omnimatch
