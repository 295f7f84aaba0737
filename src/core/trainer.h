#ifndef OMNIMATCH_CORE_TRAINER_H_
#define OMNIMATCH_CORE_TRAINER_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/aux_review.h"
#include "core/config.h"
#include "core/guard.h"
#include "core/model.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "eval/metrics.h"
#include "nn/graph.h"
#include "nn/optimizer.h"
#include "text/vocabulary.h"

namespace omnimatch {
namespace core {

/// Per-epoch loss trace plus wall-clock, returned by Train(). The timing
/// fields feed the Table 6 experiment.
struct TrainStats {
  std::vector<double> total_loss;
  std::vector<double> rating_loss;
  std::vector<double> scl_loss;
  std::vector<double> domain_loss;
  double train_seconds = 0.0;
  int steps = 0;
  /// Validation RMSE per epoch (empty when select_best_epoch is off) and
  /// the epoch whose parameters were kept.
  std::vector<double> validation_rmse;
  int best_epoch = -1;
  /// Self-healing guard outcome: every rollback performed (in step order),
  /// how much of the --max_recoveries budget was spent, and whether the
  /// guard exhausted it and stopped training on the last good state.
  std::vector<RecoveryEvent> recovery_events;
  int recoveries = 0;
  bool guard_gave_up = false;
};

/// Every document one scenario is trained, evaluated and served from, with
/// the token tables and the Algorithm 1 generator they are built from.
struct ScenarioDocuments {
  /// The vocabulary and every review as token ids.
  std::shared_ptr<const ReviewTokens> tokens;
  std::unique_ptr<AuxReviewGenerator> aux_generator;
  /// Fixed evaluation documents: per overlapping user from their source
  /// reviews; per training user from their target reviews and per cold
  /// user from Algorithm 1; per target item from training users' reviews.
  std::unordered_map<int, std::vector<int>> user_source_docs;
  std::unordered_map<int, std::vector<int>> user_target_docs;
  std::unordered_map<int, std::vector<int>> item_docs;
  /// Extra auxiliary-document samples per cold user (aux_eval_samples - 1
  /// of them; the first sample is in user_target_docs).
  std::unordered_map<int, std::vector<std::vector<int>>> cold_aux_doc_variants;
  /// Record indices the per-step training documents are re-assembled from:
  /// each item's training-user target records, and the target records
  /// Algorithm 1 borrowed for each training user (cold-start
  /// self-simulation, with the user excluded from the like-minded pool).
  std::unordered_map<int, std::vector<int>> item_records;
  std::unordered_map<int, std::vector<int>> train_aux_records;
};

/// Tokenizes `cross` (TokenizeReviews) and builds every document of the
/// scenario, drawing the Algorithm 1 samples from `rng`: first the training
/// users' borrowed records, then each cold user's ensemble, all in split
/// order. OmniMatchTrainer::Prepare calls it with the trainer's stream, and
/// ServingCorpus::Build with a fresh Rng(config.seed), which is the same
/// stream, so both get the same documents. FailedPrecondition when the
/// split has no training user or its training users no target record.
Result<ScenarioDocuments> BuildScenarioDocuments(
    const OmniMatchConfig& config, const data::CrossDomainDataset* cross,
    const data::ColdStartSplit& split, Rng* rng);

/// End-to-end OmniMatch training and cold-start evaluation for one
/// cross-domain scenario (§5.2 protocol).
///
/// Responsibilities:
///  * builds the vocabulary from training-visible text (all source reviews
///    plus training users' target reviews);
///  * builds fixed-length documents: per-user source documents, per-user
///    target documents (real reviews for training users; Algorithm 1
///    auxiliary documents for cold-start users), and per-item documents
///    from training users' target reviews;
///  * runs the §4.5 objective L = L_rating + α·L_SCL + β·L_domain with
///    Adadelta;
///  * evaluates RMSE/MAE on cold users' hidden target records (Eq. 22-23).
class OmniMatchTrainer {
 public:
  /// `cross` must outlive the trainer.
  OmniMatchTrainer(const OmniMatchConfig& config,
                   const data::CrossDomainDataset* cross,
                   data::ColdStartSplit split);

  /// Builds vocabulary, documents and the model. Must be called before
  /// Train()/Evaluate(). Returns InvalidArgument for bad configs or
  /// FailedPrecondition for unusable splits.
  Status Prepare();

  /// Runs the configured number of epochs.
  TrainStats Train();

  /// RMSE/MAE over the target-domain records of `users` (they are treated
  /// as cold-start: their target documents are the auxiliary documents).
  /// Each pair is predicted exactly as PredictRating would, whatever other
  /// users share its batch.
  eval::Metrics Evaluate(const std::vector<int>& users);

  /// Expected rating (sum_k k * p(k)) for one user-item pair. Users without
  /// target documents fall back to the target domain's global mean rating;
  /// unknown items are scored from the all-pad item document.
  float PredictRating(int user_id, int item_id);

  /// Diagnostic: replaces the stored target documents of `users` with
  /// documents built from their REAL target-domain reviews (which the model
  /// never trained on). Evaluating cold users afterwards upper-bounds what
  /// auxiliary documents could achieve — the gap between this oracle and the
  /// normal evaluation isolates the Algorithm 1 contribution.
  void UseOracleTargetDocs(const std::vector<int>& users);

  /// Persists the trained weights (all model parameters, in Parameters()
  /// order) to a binary OMWT file. The architecture itself is not stored:
  /// load into a trainer Prepared with the same config and data. Crash-safe
  /// like SaveCheckpoint: staged to a tmp file, fsync'd, renamed into
  /// place, with a CRC-32 over the payload — a crash leaves the old file or
  /// the new one, never a torn half-write.
  Status SaveWeights(const std::string& path) const;

  /// Restores weights saved by SaveWeights. Fails with InvalidArgument when
  /// the parameter count or any shape differs, when the checksum does not
  /// match, or when the file is truncated or carries trailing bytes; the
  /// model is untouched unless the whole file validates.
  Status LoadWeights(const std::string& path);

  /// Writes a crash-safe, CRC-protected checkpoint of the FULL training
  /// state: parameters, optimizer accumulators, both RNG streams, the
  /// epoch-shuffle permutation, the loss/validation traces and the
  /// best-epoch snapshot. A run restored from it continues bit-for-bit as
  /// if it had never stopped. Train() calls this automatically every
  /// config.checkpoint_every epochs; it can also be called directly at any
  /// epoch boundary.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a checkpoint written by SaveCheckpoint into a trainer that
  /// was Prepared with the same config (fingerprint-checked) and data. The
  /// next Train() call resumes after the checkpointed epoch. Corrupt,
  /// truncated or mismatched files are rejected with InvalidArgument /
  /// IoError and leave the trainer unchanged.
  Status LoadCheckpoint(const std::string& path);

  /// Epochs completed so far (across resumes). Train() runs epochs
  /// [epochs_completed, config.epochs).
  int epochs_completed() const { return epochs_completed_; }

  const text::Vocabulary& vocabulary() const;
  /// The vocabulary and every review as token ids, built once by Prepare().
  const std::shared_ptr<const ReviewTokens>& review_tokens() const {
    return docs_.tokens;
  }
  const AuxReviewGenerator* aux_generator() const {
    return docs_.aux_generator.get();
  }
  OmniMatchModel* model() { return model_.get(); }
  const data::ColdStartSplit& split() const { return split_; }
  /// Fixed evaluation-time documents, exposed read-only for inspection and
  /// tests.
  const std::unordered_map<int, std::vector<int>>& user_source_docs() const {
    return docs_.user_source_docs;
  }
  const std::unordered_map<int, std::vector<int>>& user_target_docs() const {
    return docs_.user_target_docs;
  }
  const std::unordered_map<int, std::vector<int>>& item_docs() const {
    return docs_.item_docs;
  }
  /// Extra auxiliary-document samples per cold user (aux_eval_samples - 1
  /// of them; the first sample lives in user_target_docs()).
  const std::unordered_map<int, std::vector<std::vector<int>>>&
  cold_aux_doc_variants() const {
    return docs_.cold_aux_doc_variants;
  }
  /// Null unless the trainer was Prepared with config.graph_exec.
  const nn::graph::GraphExecutor* graph_executor() const {
    return graph_exec_.get();
  }

 private:
  struct TrainSample {
    int user = -1;
    int item = -1;
    int label = 0;  // rating - 1, in [0, num_rating_classes)
  };

  /// Loss breakdown plus gradient health of one training step, consumed by
  /// the guard.
  struct StepOutcome {
    std::array<double, 4> losses = {0.0, 0.0, 0.0, 0.0};
    double grad_norm = 0.0;
    bool grads_finite = true;
  };

  /// Everything a mid-epoch rollback must restore: parameters, optimizer
  /// accumulators, the live learning rate, and every RNG stream (document
  /// assembly and dropout draw from them per batch). The epoch loop's loss
  /// accumulators need no snapshot — they are only updated after the guard
  /// accepts the step.
  struct GuardSnapshot {
    std::vector<std::vector<float>> params;
    nn::OptimizerState optimizer;
    float lr = 0.0f;
    Rng::State trainer_rng;
    std::vector<Rng::State> model_rngs;
  };

  /// Record indices a training document is assembled from, by key.
  using RecordsOf = std::function<IdSpan(int key)>;

  /// Training samples: the target-domain records of training users.
  void BuildTrainSamples();
  /// Runs one training batch: forward, backward, hardened gradient clip,
  /// and — only when the gradients are finite — the optimizer step.
  /// Consults the "grad", "param" and "loss" fault-injection points.
  StepOutcome TrainBatch(const std::vector<TrainSample>& batch);
  /// Writes the full rollback state into `snap`, reusing its buffers when
  /// the shapes already match: the guard captures before EVERY step, so
  /// this path must be allocation-free in steady state (the <5%% per-step
  /// overhead budget leaves no room for heap churn).
  void CaptureGuardSnapshot(GuardSnapshot* snap) const;
  void RestoreGuardSnapshot(const GuardSnapshot& snapshot);
  /// Batched expected-rating predictions (eval mode) through the shared
  /// scoring routine (core/scoring.h).
  std::vector<float> PredictBatch(const std::vector<TrainSample>& batch);
  /// Flattened fixed-length documents for a batch; unknown keys get pads.
  std::vector<int> GatherDocs(
      const std::unordered_map<int, std::vector<int>>& docs,
      const std::vector<int>& keys, int doc_len) const;
  /// Training path: re-assembles each key's document from its records'
  /// token spans in `table`, in a fresh random order with word dropout;
  /// falls back to the fixed documents when augmentation is disabled.
  std::vector<int> GatherTrainingDocs(
      const text::TokenTable& table, const RecordsOf& records_of,
      const std::unordered_map<int, std::vector<int>>& fixed_docs,
      const std::vector<int>& keys, int doc_len);
  /// Writes one augmented document assembled from the token spans of
  /// `records` in `table` (or pads) into dst[0, doc_len), drawing
  /// shuffle/word-dropout randomness from `rng`.
  void AssembleTrainingDoc(const text::TokenTable& table, IdSpan records,
                           int doc_len, Rng* rng, int* dst) const;
  /// Draws one 64-bit value from rng_ from which each document slot derives
  /// an independent child stream; keeps batch assembly parallelizable while
  /// consuming the trainer stream identically for every thread count.
  uint64_t NextDocSeed();
  /// Target-side training documents with cold-start self-simulation.
  std::vector<int> GatherTargetTrainingDocs(const std::vector<int>& users);

  OmniMatchConfig config_;
  const data::CrossDomainDataset* cross_;
  data::ColdStartSplit split_;
  Rng rng_;

  /// Token tables, generator and documents (BuildScenarioDocuments).
  ScenarioDocuments docs_;
  std::unique_ptr<OmniMatchModel> model_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  /// Recorded-graph step executor; null unless config_.graph_exec.
  std::unique_ptr<nn::graph::GraphExecutor> graph_exec_;

  std::vector<TrainSample> train_samples_;
  bool prepared_ = false;

  /// --- resumable training state (checkpointed) ---
  /// Traces and step count accumulated over every epoch so far, including
  /// epochs run before a resume. Train() returns a copy of this.
  TrainStats progress_;
  int epochs_completed_ = 0;
  /// Validation-selection state (select_best_epoch).
  double best_rmse_ = 1e30;
  std::vector<std::vector<float>> best_params_;
  /// Current permutation of train_samples_ indices. Epoch shuffles compose
  /// in place, so the order is part of the resumable state.
  std::vector<int> sample_order_;
  /// Numerical-health watchdog (EMA state is checkpointed).
  TrainingGuard guard_{TrainingGuard::Options{}};
};

}  // namespace core
}  // namespace omnimatch

#endif  // OMNIMATCH_CORE_TRAINER_H_
