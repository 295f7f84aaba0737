#ifndef OMNIMATCH_TEXT_DOCUMENT_H_
#define OMNIMATCH_TEXT_DOCUMENT_H_

#include <vector>

#include "text/token_table.h"

namespace omnimatch {
namespace text {

/// Builds the user/item review document of §4.2 from already tokenized
/// reviews: concatenates the id spans of `records` in `table`, in order
/// (Eq. 1-2), then truncates or pads with `<pad>` to exactly `max_len` ids.
///
/// The paper joins auxiliary reviews with an `<sp>` marker (§5.10); the
/// tokenizer strips the angle brackets, leaving an "sp" token which acts as
/// the separator if a review carries it and it is in the vocabulary.
std::vector<int> BuildDocument(const TokenTable& table, IdSpan records,
                               int max_len);

}  // namespace text
}  // namespace omnimatch

#endif  // OMNIMATCH_TEXT_DOCUMENT_H_
