#ifndef OMNIMATCH_SERVE_SNAPSHOT_MANAGER_H_
#define OMNIMATCH_SERVE_SNAPSHOT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/config.h"
#include "data/splits.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace omnimatch {
namespace serve {

/// Zero-downtime snapshot rollout for a running InferenceServer.
///
/// SwapFromCheckpoint stages the ENTIRE load + validation off the hot path:
/// the candidate OMCK is read (its CRC framing is verified by the
/// checkpoint reader), its config fingerprint is checked against the
/// serving scenario, and a deterministic golden-probe set is scored against
/// the candidate — all while the server keeps serving the incumbent
/// snapshot at full rate. Only a candidate that passes every check is
/// installed, atomically, between batches (InferenceServer::SwapSnapshot);
/// in-flight batches finish on the incumbent.
///
/// Corpus reuse: when the candidate serves the incumbent's scenario (same
/// config fingerprint, same dataset object, same split —
/// ServingCorpus::Matches), it is loaded onto the incumbent's frozen
/// ServingCorpus instead of a rebuilt one. A swap between checkpoints of
/// one run therefore costs a checkpoint read, the parameter install and
/// the golden probes. Any other
/// scenario gets a fresh corpus, exactly as ModelSnapshot::Load builds it.
///
/// Rollback is therefore trivial and implicit: on ANY failure — unreadable
/// or corrupt file, fingerprint mismatch, a wrongly shaped or non-finite
/// parameter (core::ValidateParameters, run by ModelSnapshot::Load),
/// non-finite or out-of-range probe scores, or an injected "snapshot_load"
/// fault (common/fault.h) — the candidate is discarded, the incumbent
/// keeps serving, and the attempt is counted in rollbacks() /
/// serve.swap.rollback. There is no window in which requests could observe
/// a bad model.
///
/// Golden-probe validation: the probe set is derived from the candidate
/// itself (a fixed 4 × 4 grid: the 4 lowest user ids with frozen target
/// documents × the 4 lowest item ids), scored twice at full fidelity.
/// Every score must be finite and inside [1, num_rating_classes], and the
/// two runs must agree bit-for-bit — a cheap end-to-end exercise of the
/// embedding, extractor, and head parameters that catches what a
/// per-value check cannot (finite parameters whose forward overflows or
/// leaves the rating range) without needing stored reference values.
///
/// Thread-safe; swaps serialize against each other, never against scoring.
class SnapshotManager {
 public:
  /// `server` must outlive the manager.
  explicit SnapshotManager(InferenceServer* server);

  /// Loads, validates, and — on success — atomically installs the
  /// checkpoint at `checkpoint_path` for the serving scenario
  /// (config/cross/split as in ModelSnapshot::Load; `cross` must outlive
  /// the server), reusing the incumbent's corpus when the scenario matches
  /// (class comment). On failure returns why, and the server is untouched.
  Status SwapFromCheckpoint(const core::OmniMatchConfig& config,
                            const data::CrossDomainDataset* cross,
                            data::ColdStartSplit split,
                            const std::string& checkpoint_path);

  /// Validates an already-loaded candidate and installs it (same contract).
  Status SwapTo(std::shared_ptr<const ModelSnapshot> candidate);

  /// Successful installs / discarded candidates since construction.
  int64_t swaps() const;
  int64_t rollbacks() const;
  /// Version currently serving (the incumbent's until a swap succeeds).
  uint64_t active_version() const;

 private:
  /// The golden-probe check described in the class comment.
  Status ValidateProbes(const std::shared_ptr<const ModelSnapshot>& candidate);

  InferenceServer* const server_;

  mutable std::mutex mu_;
  int64_t swaps_ = 0;
  int64_t rollbacks_ = 0;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_SNAPSHOT_MANAGER_H_
