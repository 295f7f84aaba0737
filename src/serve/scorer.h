#ifndef OMNIMATCH_SERVE_SCORER_H_
#define OMNIMATCH_SERVE_SCORER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "serve/cache.h"
#include "serve/snapshot.h"
#include "serve/types.h"

namespace omnimatch {
namespace serve {

/// One (user, item) scoring request.
struct ScoreRequest {
  int user = -1;
  int item = -1;
};

/// One scored request: the value plus the degradation tier it was served at
/// (kOk / kDegradedCached / kDegradedFallback — see serve/types.h).
struct ScoredValue {
  float score = 0.0f;
  RequestStatus status = RequestStatus::kOk;
};

/// Evaluates (user, item) requests against a ModelSnapshot through the
/// scoring routine trainer evaluation also runs (core/scoring.h; DESIGN.md
/// "Serving"): expected rating = mean over the user's own
/// auxiliary-document ensemble of softmax-expected ratings, so scores are
/// bit-identical to the trainer's by construction.
///
/// The per-user representation rows (core::UserRows) — the TextCNN forward
/// that dominates request cost — are computed once at admission and held
/// in an LRU cache
/// keyed by (snapshot version, user id); per request only the item
/// extractor (amortized over distinct items in the batch) and the small
/// rating-head GEMMs run. Users unknown to the snapshot are admitted by
/// running Algorithm 1 online against the dataset indices; users with no
/// source records at all are served the global mean rating (the trainer's
/// PredictRating fallback).
///
/// Thread-safety: fully thread-safe. The snapshot's eval forward writes no
/// shared state (see ModelSnapshot), the cache has its own lock, and the
/// snapshot pointer itself is swapped under a mutex — so any number of
/// executor threads may call ScoreBatch*/Score concurrently, and
/// SetSnapshot may run while they do. Scores are bit-identical regardless
/// of batch composition or thread count (row independence), so the
/// multi-executor results equal the single-threaded ones per request.
///
/// Degradation (the server's graceful-degradation ladder): ScoreBatchWith
/// takes a ScoreMode. kFull is the normal path. kCachedOnly skips ALL
/// admission work — cache hits are scored through the rating head
/// (bit-identical for those users, status kDegradedCached), misses get the
/// global mean (kDegradedFallback) and are NOT inserted into the cache.
/// kGlobalMean never touches the model. The snapshot is passed explicitly
/// so the caller can pin one snapshot across a batch and report its version
/// even while a hot swap lands mid-flight.
class Scorer {
 public:
  Scorer(std::shared_ptr<const ModelSnapshot> snapshot, size_t cache_capacity);

  /// Scores every request against `snap` at the given degradation tier;
  /// results are positionally aligned with `requests`.
  std::vector<ScoredValue> ScoreBatchWith(
      const std::shared_ptr<const ModelSnapshot>& snap,
      const std::vector<ScoreRequest>& requests, ScoreMode mode);

  /// Full-fidelity batch against the current snapshot. Batching is purely a
  /// throughput optimization: each result is bit-identical to Score() on
  /// the same pair, which in turn matches the trainer's PredictRating for
  /// users the snapshot holds frozen documents for.
  std::vector<float> ScoreBatch(const std::vector<ScoreRequest>& requests);

  /// Convenience single-request full-fidelity scoring.
  float Score(int user, int item);

  /// The snapshot new batches will score against (in-flight batches keep
  /// the copy they grabbed at dispatch).
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const;

  /// Atomically replaces the snapshot for subsequent batches and eagerly
  /// evicts every cache entry of any other version (the entries could never
  /// be served again — version-keying — but would otherwise hold capacity
  /// until LRU pressure cleared them). Safe to call while executors score.
  void SetSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  const UserEmbeddingCache& cache() const { return cache_; }

 private:
  /// Looks up each user's entry. With `admit_missing`, computes and caches
  /// the missing ones in one batched extractor pass; otherwise missing
  /// users stay nullptr (and nothing is written to the cache). Returns
  /// entries aligned with `users`.
  std::vector<std::shared_ptr<const UserEntry>> GetOrAdmit(
      const ModelSnapshot& snap, const std::vector<int>& users,
      bool admit_missing);

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  UserEmbeddingCache cache_;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_SCORER_H_
