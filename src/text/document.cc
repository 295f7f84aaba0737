#include "text/document.h"

#include <algorithm>

#include "common/check.h"

namespace omnimatch {
namespace text {

std::vector<int> BuildDocument(const TokenTable& table, IdSpan records,
                               int max_len) {
  OM_CHECK_GT(max_len, 0);
  const size_t len = static_cast<size_t>(max_len);
  std::vector<int> doc;
  doc.reserve(len);
  for (int r : records) {
    IdSpan ids = table.Record(static_cast<size_t>(r));
    const size_t take = std::min(ids.size(), len - doc.size());
    doc.insert(doc.end(), ids.begin(), ids.begin() + take);
    if (doc.size() == len) break;
  }
  doc.resize(len, Vocabulary::kPadId);
  return doc;
}

}  // namespace text
}  // namespace omnimatch
