#ifndef OMNIMATCH_SERVE_CACHE_H_
#define OMNIMATCH_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/scoring.h"

namespace omnimatch {
namespace serve {

/// A user's cached per-pass representation rows (core::UserRows) — the
/// expensive part of a request: the TextCNN forward over the user documents
/// dominates, and the per-item tail is two small GEMMs. `fallback` entries
/// carry no rows: the user had no usable documents at all and is served the
/// global mean rating.
struct UserEntry : core::UserRows {
  bool fallback = false;
  /// True when the documents were generated online at admission (user
  /// unknown to the snapshot) rather than frozen in it.
  bool cold_admitted = false;
};

/// LRU cache of UserEntry keyed by (snapshot version, user id). Keying on
/// the version means a cache surviving a snapshot swap can never serve
/// stale representations: old entries simply miss and age out.
///
/// Thread-safe (one mutex): every executor in the server's pool consults it
/// concurrently, and a snapshot swap evicts stale versions from yet another
/// thread. Lookups are one hash probe + a list splice, so the critical
/// section stays tiny next to the model forwards around it. Entries are
/// shared_ptr<const ...>: a looked-up entry stays valid even if evicted
/// mid-use.
class UserEmbeddingCache {
 public:
  /// `capacity` = max resident entries; at least 1.
  explicit UserEmbeddingCache(size_t capacity);

  /// Returns the entry and refreshes its recency, or nullptr on miss.
  std::shared_ptr<const UserEntry> Get(uint64_t snapshot_version, int user_id);

  /// Inserts (or replaces) an entry as most-recent, evicting the least
  /// recently used entry when over capacity.
  void Put(uint64_t snapshot_version, int user_id,
           std::shared_ptr<const UserEntry> entry);

  /// Evicts every entry whose version differs from `keep_version`, in one
  /// pass. Called on a snapshot hot-swap: version-keying already guarantees
  /// stale entries can never be SERVED, but without this they would occupy
  /// capacity until LRU pressure aged them out — on a large cache that is
  /// most of the working set going dead at once. Counted separately from
  /// capacity evictions (stale_evictions / serve.cache.stale_evictions).
  /// Returns the number of entries evicted.
  size_t EvictStaleVersions(uint64_t keep_version);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  int64_t stale_evictions() const;

 private:
  struct Key {
    uint64_t version;
    int user;
    bool operator==(const Key& o) const {
      return version == o.version && user == o.user;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.version ^ (static_cast<uint64_t>(
                                    static_cast<uint32_t>(k.user)) *
                                0x9E3779B97F4A7C15ULL);
      h ^= h >> 29;
      return static_cast<size_t>(h);
    }
  };
  struct Node {
    Key key;
    std::shared_ptr<const UserEntry> entry;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t stale_evictions_ = 0;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_CACHE_H_
