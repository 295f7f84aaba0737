#ifndef OMNIMATCH_SERVE_SNAPSHOT_H_
#define OMNIMATCH_SERVE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/aux_review.h"
#include "core/config.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "text/vocabulary.h"

namespace omnimatch {
namespace serve {

/// The frozen inputs a snapshot scores from: the vocabulary and every review
/// as token ids (core::ReviewTokens), the Algorithm-1 generator, every frozen source/target/item
/// document and cold-user document variant, the all-pad fallback documents
/// and the target domain's global mean rating. They are a pure function of
/// (config fingerprint, dataset, split) — never of a checkpoint's
/// parameters — so one corpus is built once and shared by every snapshot of
/// the same scenario: a hot swap between checkpoints of one run reuses the
/// incumbent's corpus instead of rebuilding it
/// (SnapshotManager::SwapFromCheckpoint).
///
/// Immutable after Build() returns, so const references may be shared
/// freely across threads and across any number of live snapshots; each
/// snapshot holds it through a shared_ptr, so it outlives the snapshot that
/// built it for as long as a later one still scores from it.
class ServingCorpus {
 public:
  /// Rebuilds vocabulary and documents exactly as the training run did
  /// (same config, same split, same seed => bit-identical documents): it
  /// runs core::BuildScenarioDocuments, the builder Prepare() runs, on a
  /// fresh Rng(config.seed), the stream the trainer's documents are drawn
  /// from. No model or optimizer is built, and process-global state is left
  /// alone: the kernel pool keeps its size and no trace or metrics sink is
  /// switched on, whatever `config.num_threads` and the sink fields say.
  /// `cross` must outlive the corpus (its indices back online Algorithm 1
  /// admission).
  static Result<std::shared_ptr<const ServingCorpus>> Build(
      const core::OmniMatchConfig& config,
      const data::CrossDomainDataset* cross, data::ColdStartSplit split);

  /// True when Build(config, cross, split) would produce this corpus: same
  /// config fingerprint (which covers every document-shaping field), same
  /// dataset object and an identical split.
  bool Matches(const core::OmniMatchConfig& config,
               const data::CrossDomainDataset* cross,
               const data::ColdStartSplit& split) const;

  uint64_t config_fingerprint() const { return config_fingerprint_; }
  const data::CrossDomainDataset* cross() const { return cross_; }
  const text::Vocabulary& vocabulary() const { return docs_.tokens->vocab; }
  /// Every review as token ids; online cold admission builds its documents
  /// from spans of it.
  const core::ReviewTokens& review_tokens() const { return *docs_.tokens; }
  const core::AuxReviewGenerator& aux_generator() const {
    return *docs_.aux_generator;
  }
  float global_mean_rating() const { return global_mean_rating_; }
  const std::unordered_map<int, std::vector<int>>& user_source_docs() const {
    return docs_.user_source_docs;
  }
  const std::unordered_map<int, std::vector<int>>& user_target_docs() const {
    return docs_.user_target_docs;
  }
  const std::unordered_map<int, std::vector<int>>& item_docs() const {
    return docs_.item_docs;
  }
  const std::unordered_map<int, std::vector<std::vector<int>>>&
  cold_aux_doc_variants() const {
    return docs_.cold_aux_doc_variants;
  }
  const std::vector<int>& pad_user_doc() const { return pad_user_doc_; }
  const std::vector<int>& pad_item_doc() const { return pad_item_doc_; }

 private:
  ServingCorpus() = default;

  // The key Matches() compares against.
  uint64_t config_fingerprint_ = 0;
  const data::CrossDomainDataset* cross_ = nullptr;
  data::ColdStartSplit split_;

  float global_mean_rating_ = 0.0f;
  core::ScenarioDocuments docs_;
  std::vector<int> pad_user_doc_;
  std::vector<int> pad_item_doc_;
};

/// Read-only inference state for one checkpoint: the model parameters (the
/// best-epoch snapshot when present) and the version digest, on top of a shared ServingCorpus holding the frozen
/// documents — nothing trainable, no optimizer accumulators, no RNG streams
/// (eval never draws).
///
/// Immutability contract (see DESIGN.md "Serving"): after Load() returns,
/// no member of a ModelSnapshot — nor of the corpus it shares with other
/// snapshots — is ever written again, so const references may be shared
/// freely across threads. That includes the model's forward pass:
/// parameters are frozen with requires_grad dropped (no autograd tape),
/// dropout is an eval no-op (no RNG draws), Load() pre-sets every
/// submodule's train/eval flag via SetTrainingMode (so the lazy per-forward
/// mode re-assertions are equality-guarded reads), and every activation is
/// a fresh local tensor. Any number of executor threads may therefore score
/// against one snapshot concurrently — each forward is independent, and the
/// kernel thread pool serializes its dispatch internally.
///
/// Versioning: version() is a stable digest of the config fingerprint and
/// the checkpoint's epoch/step counters. The user-embedding cache keys on
/// it, so entries from an older snapshot can never serve a newer one after
/// a swap.
class ModelSnapshot {
 public:
  /// Loads a snapshot for serving the given scenario on a freshly built
  /// ServingCorpus (ServingCorpus::Build). `cross` must outlive the
  /// snapshot (the dataset indices back online Algorithm 1 admission).
  /// Installs the checkpoint's best-epoch parameters when it carries them
  /// (select_best_epoch runs), its live parameters otherwise. Fails with
  /// InvalidArgument on a fingerprint mismatch or when the installed set
  /// fails core::ValidateParameters (tensor count, sizes, a non-finite
  /// value); propagates I/O and corruption errors from the checkpoint
  /// reader.
  static Result<std::shared_ptr<const ModelSnapshot>> Load(
      const core::OmniMatchConfig& config,
      const data::CrossDomainDataset* cross, data::ColdStartSplit split,
      const std::string& checkpoint_path);
  /// Loads a checkpoint onto an existing corpus, which must have been built
  /// for `config` (same fingerprint; checked). Reads the checkpoint,
  /// checks and installs its parameters — the whole cost of a hot swap
  /// between checkpoints of one scenario. The overload above builds a
  /// corpus and comes here.
  static Result<std::shared_ptr<const ModelSnapshot>> Load(
      const core::OmniMatchConfig& config,
      std::shared_ptr<const ServingCorpus> corpus,
      const std::string& checkpoint_path);

  /// Stable identity of (config, checkpoint progress); cache key component.
  uint64_t version() const { return version_; }

  const core::OmniMatchConfig& config() const { return config_; }

  /// The frozen inputs this snapshot scores from, possibly shared with
  /// other snapshots of the same scenario. The accessors below forward to
  /// it.
  const std::shared_ptr<const ServingCorpus>& corpus() const {
    return corpus_;
  }
  const data::CrossDomainDataset* cross() const { return corpus_->cross(); }
  const text::Vocabulary& vocabulary() const { return corpus_->vocabulary(); }
  const core::AuxReviewGenerator& aux_generator() const {
    return corpus_->aux_generator();
  }

  /// The target domain's global mean rating — the scoring fallback for
  /// users the model has no usable representation for.
  float global_mean_rating() const { return corpus_->global_mean_rating(); }

  /// Frozen evaluation documents (bit-identical to the trainer's).
  const std::unordered_map<int, std::vector<int>>& user_source_docs() const {
    return corpus_->user_source_docs();
  }
  const std::unordered_map<int, std::vector<int>>& user_target_docs() const {
    return corpus_->user_target_docs();
  }
  const std::unordered_map<int, std::vector<int>>& item_docs() const {
    return corpus_->item_docs();
  }
  const std::unordered_map<int, std::vector<std::vector<int>>>&
  cold_aux_doc_variants() const {
    return corpus_->cold_aux_doc_variants();
  }

  /// All-pad documents for unknown users/items (the trainer's GatherDocs
  /// fallback).
  const std::vector<int>& pad_user_doc() const {
    return corpus_->pad_user_doc();
  }
  const std::vector<int>& pad_item_doc() const {
    return corpus_->pad_item_doc();
  }

  /// Runs Algorithm 1 online for a user the snapshot has no frozen target
  /// documents for, against the pre-built dataset indices. Deterministic:
  /// the RNG is seeded from (version, user_id), so the same user admitted
  /// twice — or on two replicas serving the same snapshot — gets the same
  /// documents. Returns core::ColdStartDocs — the builder the trainer uses
  /// for its cold users — drawn from that per-user stream, assembled from
  /// the corpus's token table without touching review text. Empty result
  /// when the user has no source records at all.
  std::vector<std::vector<int>> BuildColdUserDocs(int user_id) const;

  /// The loaded model. Logically const — parameters are frozen, and the
  /// eval forward writes no shared state (see class comment), so it may be
  /// driven from any number of scoring threads concurrently.
  core::OmniMatchModel* model() const { return model_.get(); }

 private:
  ModelSnapshot() = default;

  core::OmniMatchConfig config_;
  uint64_t version_ = 0;
  std::shared_ptr<const ServingCorpus> corpus_;
  std::unique_ptr<core::OmniMatchModel> model_;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_SNAPSHOT_H_
