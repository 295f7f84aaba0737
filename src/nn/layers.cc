#include "nn/layers.h"

#include <cmath>

#include "common/check.h"
#include "nn/init.h"

namespace omnimatch {
namespace nn {

Linear::Linear(int in_features, int out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  OM_CHECK_GT(in_features, 0);
  OM_CHECK_GT(out_features, 0);
  weight_ = Tensor::Zeros({in_features, out_features}, /*requires_grad=*/true);
  bias_ = Tensor::Zeros({out_features}, /*requires_grad=*/true);
  XavierUniform(&weight_, in_features, out_features, rng);
}

Tensor Linear::Forward(const Tensor& x) const {
  OM_CHECK_EQ(x.dim(1), in_features_);
  return AddRowBroadcast(MatMul(x, weight_), bias_);
}

std::vector<Tensor> Linear::Parameters() const { return {weight_, bias_}; }

Mlp::Mlp(const std::vector<int>& dims, float dropout, Rng* rng)
    : dropout_(dropout), rng_(rng->Fork()) {
  OM_CHECK_GE(dims.size(), 2u) << "Mlp needs at least {in, out}";
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
  }
}

Tensor Mlp::Forward(const Tensor& x) {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) {
      h = Relu(h);
      h = Dropout(h, dropout_, training_, &rng_);
    }
  }
  return h;
}

std::vector<Tensor> Mlp::Parameters() const {
  std::vector<Tensor> out;
  for (const auto& l : layers_) {
    for (const Tensor& p : l->Parameters()) out.push_back(p);
  }
  return out;
}

EmbeddingTable::EmbeddingTable(int vocab_size, int dim, Rng* rng)
    : vocab_size_(vocab_size), dim_(dim) {
  OM_CHECK_GT(vocab_size, 0);
  OM_CHECK_GT(dim, 0);
  table_ = Tensor::Zeros({vocab_size, dim}, /*requires_grad=*/true);
  NormalInit(&table_, 0.0f, 0.1f, rng);
}

Tensor EmbeddingTable::Forward(const std::vector<int>& ids) const {
  return Gather(table_, ids);
}

std::vector<Tensor> EmbeddingTable::Parameters() const { return {table_}; }

TextCnn::TextCnn(int embed_dim, int channels, std::vector<int> kernel_sizes,
                 Rng* rng)
    : embed_dim_(embed_dim),
      channels_(channels),
      kernel_sizes_(std::move(kernel_sizes)) {
  OM_CHECK(!kernel_sizes_.empty());
  for (int k : kernel_sizes_) {
    OM_CHECK_GT(k, 0);
    int filter_len = k * embed_dim_;
    Tensor w = Tensor::Zeros({channels_, filter_len}, /*requires_grad=*/true);
    XavierUniform(&w, filter_len, channels_, rng);
    weights_.push_back(w);
    biases_.push_back(Tensor::Zeros({channels_}, /*requires_grad=*/true));
  }
}

Tensor TextCnn::Forward(const Tensor& embedded) const {
  OM_CHECK_EQ(embedded.ndim(), 3);
  OM_CHECK_EQ(embedded.dim(2), embed_dim_);
  // One op over the whole bank: a single tap-decomposed GEMM per document
  // instead of one per kernel size, and no concat.
  return TextConvMaxPool(embedded, weights_, biases_);
}

std::vector<Tensor> TextCnn::Parameters() const {
  std::vector<Tensor> out;
  for (size_t i = 0; i < weights_.size(); ++i) {
    out.push_back(weights_[i]);
    out.push_back(biases_[i]);
  }
  return out;
}

MiniTransformerEncoder::MiniTransformerEncoder(int embed_dim, int output_dim,
                                               Rng* rng)
    : embed_dim_(embed_dim), output_dim_(output_dim) {
  wq_ = std::make_unique<Linear>(embed_dim, embed_dim, rng);
  wk_ = std::make_unique<Linear>(embed_dim, embed_dim, rng);
  wv_ = std::make_unique<Linear>(embed_dim, embed_dim, rng);
  wo_ = std::make_unique<Linear>(embed_dim, output_dim, rng);
}

Tensor MiniTransformerEncoder::ForwardDoc(const Tensor& doc) const {
  OM_CHECK_EQ(doc.ndim(), 2);
  OM_CHECK_EQ(doc.dim(1), embed_dim_);
  Tensor q = wq_->Forward(doc);
  Tensor k = wk_->Forward(doc);
  Tensor v = wv_->Forward(doc);
  float scale = 1.0f / std::sqrt(static_cast<float>(embed_dim_));
  Tensor attn = Softmax(Scale(MatMulNT(q, k), scale));
  Tensor context = MatMul(attn, v);
  Tensor h = Relu(wo_->Forward(context));
  return MeanRows(h);
}

Tensor MiniTransformerEncoder::Forward(const std::vector<Tensor>& docs) const {
  OM_CHECK(!docs.empty());
  std::vector<Tensor> rows;
  rows.reserve(docs.size());
  for (const Tensor& d : docs) rows.push_back(ForwardDoc(d));
  return rows.size() == 1 ? rows[0] : ConcatRows(rows);
}

std::vector<Tensor> MiniTransformerEncoder::Parameters() const {
  return CollectParameters({wq_.get(), wk_.get(), wv_.get(), wo_.get()});
}

}  // namespace nn
}  // namespace omnimatch
