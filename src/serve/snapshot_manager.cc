#include "serve/snapshot_manager.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace omnimatch {
namespace serve {

namespace {

obs::Counter* SwapSuccessCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.swap.success");
  return c;
}
obs::Counter* SwapRollbackCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.swap.rollback");
  return c;
}

/// Golden-probe grid: kProbeUsers × kProbeItems requests (fewer when the
/// snapshot holds fewer users or items).
constexpr int kProbeUsers = 4;
constexpr int kProbeItems = 4;

/// The `n` smallest keys of `map` in ascending order — a probe set that is
/// a pure function of the snapshot contents.
template <typename Map>
std::vector<int> SmallestKeys(const Map& map, int n) {
  std::vector<int> keys;
  keys.reserve(map.size());
  for (const auto& kv : map) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  if (static_cast<int>(keys.size()) > n) keys.resize(static_cast<size_t>(n));
  return keys;
}

}  // namespace

SnapshotManager::SnapshotManager(InferenceServer* server) : server_(server) {
  OM_CHECK(server_ != nullptr);
}

Status SnapshotManager::SwapFromCheckpoint(
    const core::OmniMatchConfig& config, const data::CrossDomainDataset* cross,
    data::ColdStartSplit split, const std::string& checkpoint_path) {
  // Off the hot path from here to the final SwapSnapshot: the server keeps
  // serving the incumbent while we read, check, and probe the candidate.
  // A candidate for the incumbent's scenario scores from the incumbent's
  // frozen corpus; only a different scenario builds its own.
  std::shared_ptr<const ServingCorpus> corpus =
      server_->scorer().CurrentSnapshot()->corpus();
  Result<std::shared_ptr<const ModelSnapshot>> loaded =
      corpus->Matches(config, cross, split)
          ? ModelSnapshot::Load(config, std::move(corpus), checkpoint_path)
          : ModelSnapshot::Load(config, cross, std::move(split),
                                checkpoint_path);
  if (!loaded.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++rollbacks_;
    if (obs::MetricsEnabled()) SwapRollbackCounter()->Increment();
    return loaded.status();
  }
  return SwapTo(std::move(loaded).value());
}

Status SnapshotManager::SwapTo(
    std::shared_ptr<const ModelSnapshot> candidate) {
  OM_CHECK(candidate != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Status status = Status::OK();
  FaultHit hit;
  if (FaultInjector::Global().ShouldFire("snapshot_load", &hit)) {
    status = Status::Internal("injected snapshot_load fault");
  } else {
    OM_TRACE_SPAN("swap.validate_probes");
    status = ValidateProbes(candidate);
  }
  if (!status.ok()) {
    // Rollback = never installing the candidate; the incumbent never
    // stopped serving, so there is nothing to restore.
    ++rollbacks_;
    if (obs::MetricsEnabled()) SwapRollbackCounter()->Increment();
    return status;
  }
  {
    OM_TRACE_SPAN("swap.install");
    server_->SwapSnapshot(std::move(candidate));
  }
  ++swaps_;
  if (obs::MetricsEnabled()) SwapSuccessCounter()->Increment();
  return Status::OK();
}

Status SnapshotManager::ValidateProbes(
    const std::shared_ptr<const ModelSnapshot>& candidate) {
  const std::vector<int> users =
      SmallestKeys(candidate->user_target_docs(), kProbeUsers);
  const std::vector<int> items =
      SmallestKeys(candidate->item_docs(), kProbeItems);
  if (users.empty() || items.empty()) return Status::OK();

  std::vector<ScoreRequest> probes;
  probes.reserve(users.size() * items.size());
  for (int user : users) {
    for (int item : items) {
      ScoreRequest r;
      r.user = user;
      r.item = item;
      probes.push_back(r);
    }
  }

  // Two INDEPENDENT scorers: the second pass recomputes the admissions
  // from scratch instead of replaying the first pass's cache, so the
  // agreement check exercises the full forward twice.
  Scorer first(candidate, probes.size());
  Scorer second(candidate, probes.size());
  const std::vector<ScoredValue> a =
      first.ScoreBatchWith(candidate, probes, ScoreMode::kFull);
  const std::vector<ScoredValue> b =
      second.ScoreBatchWith(candidate, probes, ScoreMode::kFull);
  OM_CHECK_EQ(a.size(), probes.size());
  OM_CHECK_EQ(b.size(), probes.size());

  const float lo = 1.0f;
  const float hi =
      static_cast<float>(candidate->config().num_rating_classes);
  for (size_t i = 0; i < probes.size(); ++i) {
    if (!std::isfinite(a[i].score)) {
      return Status::FailedPrecondition(
          "golden probe (user=" + std::to_string(probes[i].user) +
          ", item=" + std::to_string(probes[i].item) +
          ") scored non-finite: candidate parameters are corrupt");
    }
    if (a[i].score < lo || a[i].score > hi) {
      return Status::FailedPrecondition(
          "golden probe (user=" + std::to_string(probes[i].user) +
          ", item=" + std::to_string(probes[i].item) + ") scored " +
          std::to_string(a[i].score) + ", outside [1, " +
          std::to_string(candidate->config().num_rating_classes) + "]");
    }
    if (a[i].score != b[i].score) {
      return Status::FailedPrecondition(
          "golden probe (user=" + std::to_string(probes[i].user) +
          ", item=" + std::to_string(probes[i].item) +
          ") is not reproducible: candidate forward is nondeterministic");
    }
  }
  return Status::OK();
}

int64_t SnapshotManager::swaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return swaps_;
}

int64_t SnapshotManager::rollbacks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rollbacks_;
}

uint64_t SnapshotManager::active_version() const {
  return server_->scorer().CurrentSnapshot()->version();
}

}  // namespace serve
}  // namespace omnimatch
