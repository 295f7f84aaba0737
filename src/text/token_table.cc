#include "text/token_table.h"

#include <limits>
#include <string>
#include <unordered_map>

#include "text/tokenizer.h"

namespace omnimatch {
namespace text {

std::vector<TokenTable> TokenizeColumns(const std::vector<TextColumn>& columns,
                                        int min_count, Vocabulary* vocab) {
  OM_CHECK_GE(min_count, 1);
  OM_CHECK(vocab != nullptr);
  // One pass interns every token under a provisional id (first occurrence
  // in any record), counting only counted records; a second pass over the
  // ids alone maps provisional ids to vocabulary ids.
  std::unordered_map<std::string, int> provisional;
  std::vector<const std::string*> token_of;  // provisional id -> token
  std::vector<int> counts;                   // counted occurrences
  std::vector<int> first_counted;            // provisional ids, in order
  std::vector<TokenTable> tables(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    const TextColumn& column = columns[c];
    TokenTable& table = tables[c];
    table.offsets_.reserve(column.num_records + 1);
    for (size_t r = 0; r < column.num_records; ++r) {
      const bool counted = column.counted(r);
      for (std::string& token : Tokenize(column.text(r))) {
        auto [it, inserted] = provisional.try_emplace(
            std::move(token), static_cast<int>(token_of.size()));
        if (inserted) {
          token_of.push_back(&it->first);
          counts.push_back(0);
        }
        const int id = it->second;
        if (counted && counts[static_cast<size_t>(id)]++ == 0) {
          first_counted.push_back(id);
        }
        table.ids_.push_back(id);
      }
      OM_CHECK_LE(table.ids_.size(),
                  static_cast<size_t>(std::numeric_limits<uint32_t>::max()))
          << "token table overflows 32-bit offsets";
      table.offsets_.push_back(static_cast<uint32_t>(table.ids_.size()));
    }
  }

  *vocab = Vocabulary();
  std::vector<int> final_id(token_of.size(), Vocabulary::kUnkId);
  for (int id : first_counted) {
    if (counts[static_cast<size_t>(id)] >= min_count) {
      final_id[static_cast<size_t>(id)] =
          vocab->AddToken(*token_of[static_cast<size_t>(id)]);
    }
  }
  for (TokenTable& table : tables) {
    for (int& id : table.ids_) id = final_id[static_cast<size_t>(id)];
    table.ids_.shrink_to_fit();
  }
  return tables;
}

}  // namespace text
}  // namespace omnimatch
