#include "core/model.h"

#include "common/check.h"
#include "nn/ops.h"

namespace omnimatch {
namespace core {

using nn::Tensor;

OmniMatchModel::OmniMatchModel(const OmniMatchConfig& config, int vocab_size,
                               Rng* rng)
    : config_(config), vocab_size_(vocab_size), dropout_rng_(rng->Fork()) {
  OM_CHECK(config.Validate().ok()) << config.Validate().ToString();
  OM_CHECK_GT(vocab_size, 0);

  embed_ = std::make_unique<nn::EmbeddingTable>(vocab_size, config_.embed_dim,
                                                rng);
  if (config_.extractor == ExtractorKind::kCnn) {
    extractor_dim_ = config_.cnn_channels *
                     static_cast<int>(config_.kernel_sizes.size());
    source_cnn_ = std::make_unique<nn::TextCnn>(
        config_.embed_dim, config_.cnn_channels, config_.kernel_sizes, rng);
    target_cnn_ = std::make_unique<nn::TextCnn>(
        config_.embed_dim, config_.cnn_channels, config_.kernel_sizes, rng);
    item_cnn_ = std::make_unique<nn::TextCnn>(
        config_.embed_dim, config_.cnn_channels, config_.kernel_sizes, rng);
  } else {
    // Match the CNN output width so the heads are identical across ablation
    // variants (only the extractor changes, as in Table 5).
    extractor_dim_ = config_.cnn_channels *
                     static_cast<int>(config_.kernel_sizes.size());
    source_tf_ = std::make_unique<nn::MiniTransformerEncoder>(
        config_.embed_dim, extractor_dim_, rng);
    target_tf_ = std::make_unique<nn::MiniTransformerEncoder>(
        config_.embed_dim, extractor_dim_, rng);
    item_tf_ = std::make_unique<nn::MiniTransformerEncoder>(
        config_.embed_dim, extractor_dim_, rng);
  }
  if (config_.use_mean_embedding_feature) {
    extractor_dim_ += config_.embed_dim;
  }

  int f = config_.feature_dim;
  invariant_head_ = std::make_unique<nn::Linear>(extractor_dim_, f, rng);
  source_specific_head_ = std::make_unique<nn::Linear>(extractor_dim_, f, rng);
  target_specific_head_ = std::make_unique<nn::Linear>(extractor_dim_, f, rng);
  item_head_ = std::make_unique<nn::Linear>(extractor_dim_, f, rng);

  // User representation is invariant ⊕ specific = 2f; user-item pair = 3f.
  projection_ = std::make_unique<nn::Mlp>(
      std::vector<int>{3 * f, config_.projection_dim}, config_.dropout, rng);
  domain_classifier_invariant_ = std::make_unique<nn::Mlp>(
      std::vector<int>{f, f / 2, 2}, config_.dropout, rng);
  domain_classifier_specific_ = std::make_unique<nn::Mlp>(
      std::vector<int>{f, f / 2, 2}, config_.dropout, rng);
  int rating_in = 3 * f;
  if (config_.use_interaction_features) {
    interaction_proj_ = std::make_unique<nn::Linear>(2 * f, f, rng);
    rating_in += f;
  }
  rating_classifier_ = std::make_unique<nn::Mlp>(
      std::vector<int>{rating_in, 2 * f, f, config_.num_rating_classes},
      config_.dropout, rng);
}

Tensor OmniMatchModel::RunExtractor(
    const nn::TextCnn* cnn, const nn::MiniTransformerEncoder* transformer,
    const std::vector<int>& doc_ids, int batch, int doc_len) {
  OM_CHECK_GT(batch, 0);
  OM_CHECK_EQ(doc_ids.size(), static_cast<size_t>(batch) * doc_len);
  Tensor pooled;
  if (cnn != nullptr) {
    Tensor docs = embed_->Forward(doc_ids, {batch, doc_len});  // [B, L, E]
    pooled = cnn->Forward(docs);  // [B, cnn_out]
    if (config_.use_mean_embedding_feature) {
      pooled = nn::ConcatCols({pooled, nn::MeanAxis1(docs)});
    }
  } else {
    OM_CHECK(transformer != nullptr);
    std::vector<Tensor> docs;
    std::vector<Tensor> means;
    docs.reserve(static_cast<size_t>(batch));
    for (int b = 0; b < batch; ++b) {
      std::vector<int> ids(doc_ids.begin() + static_cast<size_t>(b) * doc_len,
                           doc_ids.begin() +
                               static_cast<size_t>(b + 1) * doc_len);
      docs.push_back(embed_->Forward(ids));  // [L, E]
      if (config_.use_mean_embedding_feature) {
        means.push_back(nn::MeanRows(docs.back()));
      }
    }
    pooled = transformer->Forward(docs);  // [B, tf_out]
    if (config_.use_mean_embedding_feature) {
      pooled = nn::ConcatCols({pooled, nn::ConcatRows(means)});
    }
  }
  return nn::Dropout(pooled, config_.dropout, training_, &dropout_rng_);
}

OmniMatchModel::UserFeatures OmniMatchModel::ExtractUser(
    data::DomainSide side, const std::vector<int>& doc_ids, int batch) {
  const bool is_source = side == data::DomainSide::kSource;
  Tensor pooled = RunExtractor(
      is_source ? source_cnn_.get() : target_cnn_.get(),
      is_source ? source_tf_.get() : target_tf_.get(), doc_ids, batch,
      config_.doc_len);
  UserFeatures features;
  // Eq. 8: the invariant head is the SAME object for both domains.
  features.invariant = nn::Relu(invariant_head_->Forward(pooled));
  // Eq. 9: the specific head is per-domain.
  features.specific = nn::Relu(
      (is_source ? source_specific_head_ : target_specific_head_)
          ->Forward(pooled));
  return features;
}

Tensor OmniMatchModel::ExtractItem(const std::vector<int>& doc_ids,
                                   int batch) {
  Tensor pooled = RunExtractor(item_cnn_.get(), item_tf_.get(), doc_ids,
                               batch, config_.item_doc_len);
  return nn::Relu(item_head_->Forward(pooled));
}

Tensor OmniMatchModel::UserRepresentation(const UserFeatures& features) {
  return nn::ConcatCols({features.invariant, features.specific});
}

Tensor OmniMatchModel::Project(const Tensor& user_rep,
                               const Tensor& item_rep) {
  projection_->set_training(training_);
  return projection_->Forward(nn::ConcatCols({user_rep, item_rep}));
}

Tensor OmniMatchModel::RatingLogits(const Tensor& target_rep,
                                    const Tensor& item_rep) {
  rating_classifier_->set_training(training_);
  std::vector<Tensor> features = {target_rep, item_rep};
  if (config_.use_interaction_features) {
    features.push_back(
        nn::Mul(interaction_proj_->Forward(target_rep), item_rep));
  }
  return rating_classifier_->Forward(nn::ConcatCols(features));
}

Tensor OmniMatchModel::DomainLogitsInvariant(
    const Tensor& invariant_features) {
  domain_classifier_invariant_->set_training(training_);
  // GRL: the classifier minimizes domain CE while the extractor, receiving
  // the reversed gradient, maximizes it — features become domain-invariant.
  Tensor reversed = nn::GradReverse(invariant_features, config_.grl_lambda);
  return domain_classifier_invariant_->Forward(reversed);
}

Tensor OmniMatchModel::DomainLogitsSpecific(const Tensor& specific_features) {
  domain_classifier_specific_->set_training(training_);
  return domain_classifier_specific_->Forward(specific_features);
}

void OmniMatchModel::SetTrainingMode(bool training) {
  set_training(training);
  projection_->set_training(training);
  domain_classifier_invariant_->set_training(training);
  domain_classifier_specific_->set_training(training);
  rating_classifier_->set_training(training);
}

std::vector<Tensor> OmniMatchModel::Parameters() const {
  return nn::CollectParameters({
      embed_.get(),
      source_cnn_.get(),
      target_cnn_.get(),
      item_cnn_.get(),
      source_tf_.get(),
      target_tf_.get(),
      item_tf_.get(),
      invariant_head_.get(),
      source_specific_head_.get(),
      target_specific_head_.get(),
      item_head_.get(),
      interaction_proj_.get(),
      projection_.get(),
      domain_classifier_invariant_.get(),
      domain_classifier_specific_.get(),
      rating_classifier_.get(),
  });
}

std::vector<Rng::State> OmniMatchModel::RngStates() const {
  return {
      dropout_rng_.GetState(),
      projection_->rng_state(),
      domain_classifier_invariant_->rng_state(),
      domain_classifier_specific_->rng_state(),
      rating_classifier_->rng_state(),
  };
}

Status OmniMatchModel::SetRngStates(const std::vector<Rng::State>& states) {
  if (states.size() != 5) {
    return Status::InvalidArgument(
        "model expects 5 dropout RNG states, got " +
        std::to_string(states.size()));
  }
  dropout_rng_.SetState(states[0]);
  projection_->set_rng_state(states[1]);
  domain_classifier_invariant_->set_rng_state(states[2]);
  domain_classifier_specific_->set_rng_state(states[3]);
  rating_classifier_->set_rng_state(states[4]);
  return Status::OK();
}

}  // namespace core
}  // namespace omnimatch
