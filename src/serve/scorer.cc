#include "serve/scorer.h"

#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace omnimatch {
namespace serve {

namespace {

obs::Counter* ColdAdmissions() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.cold_admissions");
  return c;
}
obs::Counter* Admissions() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.admissions");
  return c;
}
obs::Counter* FallbackScores() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.fallback_scores");
  return c;
}
obs::Counter* DegradedCached() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.degraded.cached");
  return c;
}
obs::Counter* DegradedFallback() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.degraded.fallback");
  return c;
}
obs::Histogram* ScoreBatchHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.score_batch_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* ColdDocsHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.cold_docs_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* AdmitHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.admit_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* ItemRowsHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.item_rows_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* HeadHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.head_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}

}  // namespace

Scorer::Scorer(std::shared_ptr<const ModelSnapshot> snapshot,
               size_t cache_capacity)
    : snapshot_(std::move(snapshot)), cache_(cache_capacity) {
  OM_CHECK(snapshot_ != nullptr);
}

std::shared_ptr<const ModelSnapshot> Scorer::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void Scorer::SetSnapshot(std::shared_ptr<const ModelSnapshot> snapshot) {
  OM_CHECK(snapshot != nullptr);
  const uint64_t keep = snapshot->version();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  // After the store: an executor that grabbed the OLD snapshot may still
  // Put() old-version entries for a moment; they can never be served to a
  // new-version lookup (version-keying) and the next swap sweeps them too.
  cache_.EvictStaleVersions(keep);
}

std::vector<std::shared_ptr<const UserEntry>> Scorer::GetOrAdmit(
    const ModelSnapshot& snap, const std::vector<int>& users,
    bool admit_missing) {
  const uint64_t version = snap.version();
  std::vector<std::shared_ptr<const UserEntry>> out(users.size());

  /// Users missing from the cache, with their per-pass target documents.
  struct Pending {
    size_t slot = 0;  // index into `users` / `out`
    std::vector<std::vector<int>> owned_docs;  // online-generated storage
  };
  std::vector<Pending> pending;
  std::vector<core::UserDocs> docs;  // aligned with `pending`
  for (size_t i = 0; i < users.size(); ++i) {
    out[i] = cache_.Get(version, users[i]);
    if (out[i] != nullptr) continue;
    if (!admit_missing) continue;  // degraded: leave nullptr, cache untouched
    Pending p;
    p.slot = i;
    // Frozen documents: the trainer's primary document plus its ensemble
    // variants, exactly the rows trainer evaluation extracts.
    core::UserDocs d = core::FrozenUserDocs(
        users[i], snap.user_target_docs(), snap.cold_aux_doc_variants(),
        snap.user_source_docs());
    if (d.target[0] == nullptr) {
      // Unknown user: Algorithm 1 online, at admission time.
      {
        OM_TRACE_SPAN_TIMED("serve.cold_docs", ColdDocsHist());
        p.owned_docs = snap.BuildColdUserDocs(users[i]);
      }
      if (p.owned_docs.empty()) {
        auto entry = std::make_shared<UserEntry>();
        entry->fallback = true;
        cache_.Put(version, users[i], entry);
        out[i] = std::move(entry);
        continue;
      }
      d.target.clear();
      for (const std::vector<int>& doc : p.owned_docs) d.target.push_back(&doc);
    }
    pending.push_back(std::move(p));
    docs.push_back(std::move(d));
  }
  if (pending.empty()) return out;

  obs::TraceSpan span("serve.admit", AdmitHist());
  std::vector<core::UserRows> rows = core::ExtractUserRows(snap.model(), docs);
  for (size_t p = 0; p < pending.size(); ++p) {
    auto entry = std::make_shared<UserEntry>();
    static_cast<core::UserRows&>(*entry) = std::move(rows[p]);
    entry->cold_admitted = !pending[p].owned_docs.empty();
    Admissions()->Increment();
    if (entry->cold_admitted) ColdAdmissions()->Increment();
    cache_.Put(version, users[pending[p].slot], entry);
    out[pending[p].slot] = std::move(entry);
  }
  return out;
}

std::vector<ScoredValue> Scorer::ScoreBatchWith(
    const std::shared_ptr<const ModelSnapshot>& snap,
    const std::vector<ScoreRequest>& requests, ScoreMode mode) {
  OM_CHECK(snap != nullptr);
  if (requests.empty()) return {};
  const float global_mean = snap->global_mean_rating();

  // Tier 2: shed all model work. No cache traffic either — the point is to
  // bound the executor's time per batch by a memset-scale loop.
  if (mode == ScoreMode::kGlobalMean) {
    DegradedFallback()->Add(static_cast<int64_t>(requests.size()));
    return std::vector<ScoredValue>(
        requests.size(),
        ScoredValue{global_mean, RequestStatus::kDegradedFallback});
  }

  obs::TraceSpan span("serve.score_batch", ScoreBatchHist());
  core::OmniMatchModel* model = snap->model();
  // Eval mode was pre-set recursively at snapshot load (SetTrainingMode):
  // asserting it here is a pure read, safe under concurrent executors.
  OM_CHECK(!model->training());

  const bool admit = mode == ScoreMode::kFull;

  // Distinct users (order-preserving), one cache lookup / admission each.
  std::vector<int> users;
  std::unordered_map<int, size_t> user_slot;
  for (const ScoreRequest& r : requests) {
    if (user_slot.emplace(r.user, users.size()).second) {
      users.push_back(r.user);
    }
  }
  std::vector<std::shared_ptr<const UserEntry>> entries =
      GetOrAdmit(*snap, users, admit);

  std::vector<ScoredValue> out(requests.size());
  // Resolves every request with no usable representation rows; the rest
  // get their tier stamped and are scored below.
  auto resolve_terminal = [&](size_t i,
                              const UserEntry* entry) -> bool {
    if (entry == nullptr) {
      // Cached-only miss: admission skipped, best effort is the mean.
      out[i] = {global_mean, RequestStatus::kDegradedFallback};
      DegradedFallback()->Increment();
      return true;
    }
    if (entry->fallback) {
      // The user has no records at all: the global mean IS the exact
      // full-fidelity answer (the trainer's own fallback), whatever tier
      // we are serving at.
      out[i] = {global_mean,
                admit ? RequestStatus::kOk : RequestStatus::kDegradedCached};
      FallbackScores()->Increment();
      if (!admit) DegradedCached()->Increment();
      return true;
    }
    return false;
  };

  // Item representations, one extractor row per DISTINCT item among the
  // requests that will reach the rating head (row independence again: the
  // shared row is bit-identical to the per-request row the trainer would
  // compute).
  std::unordered_map<int, size_t> item_slot;
  std::vector<const std::vector<int>*> item_docs;
  for (size_t i = 0; i < requests.size(); ++i) {
    const UserEntry* entry = entries[user_slot[requests[i].user]].get();
    if (entry == nullptr || entry->fallback) continue;
    if (item_slot.emplace(requests[i].item, item_docs.size()).second) {
      item_docs.push_back(core::FindDoc(snap->item_docs(), requests[i].item));
    }
  }
  std::vector<std::vector<float>> item_rows;
  {
    OM_TRACE_SPAN_TIMED("serve.item_rows", ItemRowsHist());
    item_rows = core::ExtractItemRows(model, item_docs);
  }

  std::vector<size_t> scored;
  std::vector<core::ScorePair> pairs;
  for (size_t i = 0; i < requests.size(); ++i) {
    const UserEntry* entry = entries[user_slot[requests[i].user]].get();
    if (resolve_terminal(i, entry)) continue;
    out[i].status =
        admit ? RequestStatus::kOk : RequestStatus::kDegradedCached;
    if (!admit) DegradedCached()->Increment();
    scored.push_back(i);
    pairs.push_back({entry, &item_rows[item_slot[requests[i].item]]});
  }
  if (pairs.empty()) return out;
  std::vector<float> scores;
  {
    OM_TRACE_SPAN_TIMED("serve.head", HeadHist());
    scores = core::ExpectedRatings(model, pairs);
  }
  for (size_t k = 0; k < scored.size(); ++k) out[scored[k]].score = scores[k];
  return out;
}

std::vector<float> Scorer::ScoreBatch(
    const std::vector<ScoreRequest>& requests) {
  std::vector<ScoredValue> scored =
      ScoreBatchWith(CurrentSnapshot(), requests, ScoreMode::kFull);
  std::vector<float> preds(scored.size());
  for (size_t i = 0; i < scored.size(); ++i) preds[i] = scored[i].score;
  return preds;
}

float Scorer::Score(int user, int item) {
  ScoreRequest r;
  r.user = user;
  r.item = item;
  return ScoreBatch({r})[0];
}

}  // namespace serve
}  // namespace omnimatch
