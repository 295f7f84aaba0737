#ifndef OMNIMATCH_TEXT_TOKEN_TABLE_H_
#define OMNIMATCH_TEXT_TOKEN_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/id_span.h"
#include "text/vocabulary.h"

namespace omnimatch {
namespace text {

/// One domain's review texts for TokenizeColumns: `text(r)` is record r's
/// text for r in [0, num_records); records with `counted(r)` false are
/// tokenized into the table but do not count toward the vocabulary.
struct TextColumn {
  size_t num_records = 0;
  std::function<std::string_view(size_t)> text;
  std::function<bool(size_t)> counted;
};

/// Every review of one domain as vocabulary ids, tokenized once: record r's
/// tokens are ids()[offsets()[r], offsets()[r + 1]). Out-of-vocabulary
/// tokens hold Vocabulary::kUnkId. Costs 4 bytes per token plus 4 bytes per
/// record. Documents are assembled from spans of it (BuildDocument), so no
/// consumer re-tokenizes review text.
class TokenTable {
 public:
  TokenTable() : offsets_(1, 0) {}

  /// Record `r`'s token ids; empty for a review without tokens.
  IdSpan Record(size_t r) const {
    OM_CHECK_LT(r, num_records());
    return {ids_.data() + offsets_[r],
            static_cast<size_t>(offsets_[r + 1] - offsets_[r])};
  }

  size_t num_records() const { return offsets_.size() - 1; }
  size_t num_tokens() const { return ids_.size(); }
  const std::vector<int>& ids() const { return ids_; }
  const std::vector<uint32_t>& offsets() const { return offsets_; }

 private:
  friend std::vector<TokenTable> TokenizeColumns(
      const std::vector<TextColumn>& columns, int min_count,
      Vocabulary* vocab);

  std::vector<int> ids_;
  std::vector<uint32_t> offsets_;  // num_records() + 1, monotone
};

/// Tokenizes every record of every column exactly once and returns one
/// TokenTable per column, in column order. `*vocab` becomes a fresh
/// vocabulary of every token with at least `min_count` counted occurrences,
/// its ids assigned in order of first counted occurrence over the columns
/// in order, records in order; every other token maps to kUnkId.
///
/// One pass over the text (ForEachToken's byte table, text/tokenizer.h)
/// interns each token into an open-addressing table whose token bytes sit
/// in one arena: no std::string per token and no vector per record, only
/// one std::string per vocabulary entry at the end. The ids are those of
/// Tokenize() followed by first-occurrence interning.
std::vector<TokenTable> TokenizeColumns(const std::vector<TextColumn>& columns,
                                        int min_count, Vocabulary* vocab);

}  // namespace text
}  // namespace omnimatch

#endif  // OMNIMATCH_TEXT_TOKEN_TABLE_H_
