#ifndef OMNIMATCH_CORE_MODEL_H_
#define OMNIMATCH_CORE_MODEL_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "data/types.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace core {

/// The OmniMatch network (Fig. 2, components B-D plus the rating
/// classifier).
///
/// Architecture per §4.2-§4.4:
///  * a shared token embedding table (the fastText substitute);
///  * per-domain user text extractors (CNN by default) and an item
///    extractor;
///  * a domain-INVARIANT fully-connected head whose weights are shared
///    between the source and target user paths, and per-domain
///    domain-SPECIFIC heads (the shared-private paradigm);
///  * a projection MLP for the contrastive module (Eq. 11);
///  * domain classifiers: the invariant one sits behind a Gradient
///    Reversal Layer (adversarial), the specific one trains normally;
///  * the rating classifier MLP over r_target ⊕ r_item (Eq. 18).
class OmniMatchModel : public nn::Module {
 public:
  /// Invariant and specific halves of a user's representation in a domain.
  struct UserFeatures {
    nn::Tensor invariant;  // [B, feature_dim]
    nn::Tensor specific;   // [B, feature_dim]
  };

  OmniMatchModel(const OmniMatchConfig& config, int vocab_size, Rng* rng);

  /// Runs the user feature extractor of the given domain side over a batch
  /// of fixed-length documents. `doc_ids` is batch-major, length
  /// batch * config.doc_len.
  UserFeatures ExtractUser(data::DomainSide side,
                           const std::vector<int>& doc_ids, int batch);

  /// Item extractor: items use only the shared-style feature (§4.2).
  /// `doc_ids` has length batch * config.item_doc_len.
  nn::Tensor ExtractItem(const std::vector<int>& doc_ids, int batch);

  /// r_j = invariant ⊕ specific (Eq. 10).
  static nn::Tensor UserRepresentation(const UserFeatures& features);

  /// X̃ = Proj(r_user ⊕ r_item) (Eq. 11).
  nn::Tensor Project(const nn::Tensor& user_rep, const nn::Tensor& item_rep);

  /// Rating logits over the 5 classes (Eq. 18).
  nn::Tensor RatingLogits(const nn::Tensor& target_rep,
                          const nn::Tensor& item_rep);

  /// Domain logits for invariant features; input passes through the GRL so
  /// that minimizing the returned classifier loss *maximizes* it w.r.t. the
  /// extractor (Eq. 14-15).
  nn::Tensor DomainLogitsInvariant(const nn::Tensor& invariant_features);

  /// Domain logits for specific features (no reversal; Eq. 16-17).
  nn::Tensor DomainLogitsSpecific(const nn::Tensor& specific_features);

  std::vector<nn::Tensor> Parameters() const override;

  /// Sets train/eval mode on this module AND every submodule that keeps its
  /// own flag (the four Mlps propagate lazily per forward call otherwise).
  /// A model that will run its forward concurrently on several scoring
  /// threads (src/serve multi-executor pool) MUST be switched with this
  /// before being shared: afterwards the lazy per-forward set_training
  /// calls are equality-guarded no-op reads, so concurrent eval forwards
  /// never write shared module state.
  void SetTrainingMode(bool training);

  const OmniMatchConfig& config() const { return config_; }
  int vocab_size() const { return vocab_size_; }

  /// The model's private dropout stream. Exposed so checkpoints can capture
  /// and restore it — training consumes it every batch, and resuming
  /// bit-for-bit requires the exact stream position.
  Rng* dropout_rng() { return &dropout_rng_; }

  /// Every dropout stream the model owns, in a fixed order: the pooled-
  /// feature stream plus one per Mlp (projection, both domain classifiers,
  /// rating classifier). Checkpoints store ALL of them — each advances
  /// independently during training, so restoring only one would desync the
  /// masks after resume.
  std::vector<Rng::State> RngStates() const;

  /// Restores the streams captured by RngStates(). InvalidArgument when the
  /// count does not match this architecture.
  Status SetRngStates(const std::vector<Rng::State>& states);

 private:
  /// Pooled text features for a batch of documents ([B, extractor_dim]).
  nn::Tensor RunExtractor(const nn::TextCnn* cnn,
                          const nn::MiniTransformerEncoder* transformer,
                          const std::vector<int>& doc_ids, int batch,
                          int doc_len);

  OmniMatchConfig config_;
  int vocab_size_;
  int extractor_dim_;
  Rng dropout_rng_;

  std::unique_ptr<nn::EmbeddingTable> embed_;

  // CNN extractors (null when extractor == kTransformer).
  std::unique_ptr<nn::TextCnn> source_cnn_;
  std::unique_ptr<nn::TextCnn> target_cnn_;
  std::unique_ptr<nn::TextCnn> item_cnn_;
  // Transformer extractors (null when extractor == kCnn).
  std::unique_ptr<nn::MiniTransformerEncoder> source_tf_;
  std::unique_ptr<nn::MiniTransformerEncoder> target_tf_;
  std::unique_ptr<nn::MiniTransformerEncoder> item_tf_;

  std::unique_ptr<nn::Linear> invariant_head_;        // SHARED across domains
  std::unique_ptr<nn::Linear> source_specific_head_;
  std::unique_ptr<nn::Linear> target_specific_head_;
  std::unique_ptr<nn::Linear> item_head_;

  /// Maps the 2f user representation to f for the ⊙-interaction feature.
  std::unique_ptr<nn::Linear> interaction_proj_;
  std::unique_ptr<nn::Mlp> projection_;
  std::unique_ptr<nn::Mlp> domain_classifier_invariant_;
  std::unique_ptr<nn::Mlp> domain_classifier_specific_;
  std::unique_ptr<nn::Mlp> rating_classifier_;
};

}  // namespace core
}  // namespace omnimatch

#endif  // OMNIMATCH_CORE_MODEL_H_
