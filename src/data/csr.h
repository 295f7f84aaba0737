#ifndef OMNIMATCH_DATA_CSR_H_
#define OMNIMATCH_DATA_CSR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/id_span.h"

namespace omnimatch {
namespace data {

/// A CsrIndex bucket: the shared int-span view (common/id_span.h).
using ::omnimatch::IdSpan;

/// CSR-packed multimap `Key -> [int]`: sorted unique keys, an offsets array
/// of size num_keys()+1, and one contiguous values array. Replaces the
/// per-bucket heap allocations of unordered_map<Key, vector<int>> — at 10⁶
/// users that map costs one allocation and ~3 cache lines of overhead per
/// bucket; CSR is three flat arrays and a binary-searched lookup.
///
/// Determinism contract (DESIGN.md "Out-of-core data path"): Build() and
/// Filter() produce bit-identical arrays for any thread-pool size. Shard
/// boundaries are computed from the element count alone, per-shard sorted
/// runs are merged in fixed shard order on the calling thread, and the
/// value fill walks records in index order.
template <typename Key>
class CsrIndex {
 public:
  CsrIndex() { offsets_.assign(1, 0); }

  /// Builds the index over `n` records. `key_of(i)` / `value_of(i)` give
  /// record i's key and stored value. Bucket values keep ascending record
  /// order; with `sort_unique_values` each bucket is additionally sorted
  /// and deduplicated (the UsersWhoRated contract).
  static CsrIndex Build(size_t n, const std::function<Key(size_t)>& key_of,
                        const std::function<int(size_t)>& value_of,
                        bool sort_unique_values);

  /// A copy of `src` keeping only values that satisfy `keep`. The key set
  /// is preserved (buckets may become empty), so offsets stay comparable
  /// with the source index. Parallel over keys, deterministic.
  static CsrIndex Filter(const CsrIndex& src,
                         const std::function<bool(int)>& keep);

  /// The bucket for `key`; empty when the key is absent. O(log num_keys).
  IdSpan Find(Key key) const;

  bool Contains(Key key) const { return !Find(key).empty(); }

  size_t num_keys() const { return keys_.size(); }

  /// Bucket by key position (keys()[k]); O(1).
  IdSpan ValuesAt(size_t k) const {
    return IdSpan(values_.data() + offsets_[k],
                  static_cast<size_t>(offsets_[k + 1] - offsets_[k]));
  }

  const std::vector<Key>& keys() const { return keys_; }
  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<int>& values() const { return values_; }

 private:
  std::vector<Key> keys_;        // sorted, unique
  std::vector<uint64_t> offsets_;  // size keys_.size() + 1
  std::vector<int> values_;      // packed buckets
};

extern template class CsrIndex<int>;
extern template class CsrIndex<long long>;

}  // namespace data
}  // namespace omnimatch

#endif  // OMNIMATCH_DATA_CSR_H_
