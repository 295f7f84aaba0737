#ifndef OMNIMATCH_NN_LAYERS_H_
#define OMNIMATCH_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {

/// Dense affine layer: y = x W + b, with W [in, out] and b [out].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng);

  /// x is [B, in] -> [B, out].
  Tensor Forward(const Tensor& x) const;

  std::vector<Tensor> Parameters() const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;
  Tensor bias_;
};

/// Multi-layer perceptron: Linear -> ReLU -> Dropout, repeated, with no
/// activation or dropout after the final layer. Dropout follows the paper's
/// "applied after each linear layer" (§5.4) for the hidden layers.
class Mlp : public Module {
 public:
  /// `dims` = {in, hidden..., out}; needs at least {in, out}.
  Mlp(const std::vector<int>& dims, float dropout, Rng* rng);

  Tensor Forward(const Tensor& x);

  std::vector<Tensor> Parameters() const override;

  /// The hidden-layer dropout stream. Part of the resumable training state:
  /// checkpoints capture it so a restored run draws the same masks.
  Rng::State rng_state() const { return rng_.GetState(); }
  void set_rng_state(const Rng::State& state) { rng_.SetState(state); }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  float dropout_;
  Rng rng_;
};

/// Trainable token embedding table [vocab_size, dim].
///
/// Stands in for the paper's pretrained 300-d fastText vectors: rows are
/// hash-seeded so initialization is deterministic given (seed, vocab), and
/// training refines them. `set_frozen(true)` emulates a frozen pretrained
/// table.
class EmbeddingTable : public Module {
 public:
  EmbeddingTable(int vocab_size, int dim, Rng* rng);

  /// ids (flattened batch of documents) -> [ids.size(), dim], or
  /// `rows_shape` + [dim] when given (see nn::Gather).
  Tensor Forward(const std::vector<int>& ids,
                 std::vector<int> rows_shape = {}) const;

  std::vector<Tensor> Parameters() const override;

  void set_frozen(bool frozen) { table_.set_requires_grad(!frozen); }

  int vocab_size() const { return vocab_size_; }
  int dim() const { return dim_; }
  Tensor& table() { return table_; }

 private:
  int vocab_size_;
  int dim_;
  Tensor table_;
};

/// The paper's text CNN (§4.2): parallel convolutions with kernel sizes
/// (3, 4, 5 by default), `channels` filters each, ReLU + max-over-time
/// pooling, concatenated -> [B, channels * kernel_sizes.size()].
class TextCnn : public Module {
 public:
  TextCnn(int embed_dim, int channels, std::vector<int> kernel_sizes,
          Rng* rng);

  /// embedded documents [B, L, E] -> [B, channels * #kernels].
  Tensor Forward(const Tensor& embedded) const;

  std::vector<Tensor> Parameters() const override;

  int output_dim() const {
    return channels_ * static_cast<int>(kernel_sizes_.size());
  }

 private:
  int embed_dim_;
  int channels_;
  std::vector<int> kernel_sizes_;
  std::vector<Tensor> weights_;  // [channels, k * embed] per kernel size
  std::vector<Tensor> biases_;   // [channels] per kernel size
};

/// Single-block single-head self-attention encoder with mean pooling.
///
/// The Table 5 "OmniMatch-BERT" substitute: a heavier contextual extractor
/// that can be swapped for the TextCnn. Per document: Q=XWq, K=XWk, V=XWv,
/// A=softmax(QK^T/sqrt(d)), H=ReLU((AV)Wo), output = mean over tokens.
class MiniTransformerEncoder : public Module {
 public:
  MiniTransformerEncoder(int embed_dim, int output_dim, Rng* rng);

  /// One embedded document [L, E] -> [1, output_dim].
  Tensor ForwardDoc(const Tensor& doc) const;

  /// Batch of embedded documents -> [docs.size(), output_dim].
  Tensor Forward(const std::vector<Tensor>& docs) const;

  std::vector<Tensor> Parameters() const override;

  int output_dim() const { return output_dim_; }

 private:
  int embed_dim_;
  int output_dim_;
  std::unique_ptr<Linear> wq_;
  std::unique_ptr<Linear> wk_;
  std::unique_ptr<Linear> wv_;
  std::unique_ptr<Linear> wo_;
};

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_LAYERS_H_
