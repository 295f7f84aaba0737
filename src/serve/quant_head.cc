#include "serve/quant_head.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "nn/gemm.h"

namespace omnimatch {
namespace serve {

using nn::quant::ActivationCalibrator;
using nn::quant::QuantNode;
using nn::quant::QuantOptions;
using nn::quant::QuantizedLinear;
using nn::quant::ShouldQuantizeNode;

std::unique_ptr<QuantizedRatingHead> QuantizedRatingHead::Build(
    const core::OmniMatchModel& model, const nn::quant::QuantOptions& options,
    const CalibrationSample& calibration) {
  if (calibration.rows <= 0) return nullptr;

  const int f = model.config().feature_dim;
  const nn::Linear* inter = model.interaction_proj();
  const nn::Mlp& mlp = model.rating_classifier();
  const size_t n_layers = mlp.num_layers();
  OM_CHECK(n_layers > 0);

  auto head = std::unique_ptr<QuantizedRatingHead>(new QuantizedRatingHead());
  head->use_interaction_ = inter != nullptr;
  head->user_width_ = 2 * f;
  head->item_width_ = f;
  head->num_classes_ = mlp.layer(n_layers - 1).out_features();
  OM_CHECK_EQ(mlp.layer(0).in_features(),
              head->user_width_ + head->item_width_ +
                  (inter ? head->item_width_ : 0));
  OM_CHECK_EQ(calibration.user_rows.size(),
              static_cast<size_t>(calibration.rows) * head->user_width_);
  OM_CHECK_EQ(calibration.item_rows.size(),
              static_cast<size_t>(calibration.rows) * head->item_width_);

  // Float nodes first: this head's forward is then exactly the eval-mode
  // float RatingLogits (dropout is identity in eval), so one pass of it
  // over the sample calibrates every node's input.
  if (inter) head->interaction_ = Node(*inter, /*relu=*/false);
  for (size_t i = 0; i < n_layers; ++i) {
    head->mlp_.emplace_back(mlp.layer(i), /*relu=*/i + 1 < n_layers);
  }
  std::vector<ActivationCalibrator> calibrators(n_layers + 1);
  std::vector<float> logits;
  head->Forward(calibration.user_rows.data(), calibration.item_rows.data(),
                calibration.rows, &logits, &calibrators);

  // --- Plan + quantize ---------------------------------------------------
  head->plan_.isa = std::min(ActiveIsa(), nn::int8gemm::BestCompiledIsa());
  if (inter) {
    QuantizeNode(*inter, "interaction_proj", options, calibrators[0],
                 &head->interaction_, &head->plan_.nodes);
  }
  for (size_t i = 0; i < n_layers; ++i) {
    QuantizeNode(mlp.layer(i), "rating_mlp." + std::to_string(i), options,
                 calibrators[i + 1], &head->mlp_[i], &head->plan_.nodes);
  }
  return head;
}

void QuantizedRatingHead::QuantizeNode(
    const nn::Linear& linear, const std::string& name,
    const QuantOptions& options, const ActivationCalibrator& calibrator,
    Node* node, std::vector<QuantNode>* plan_nodes) {
  QuantNode record;
  record.name = name;
  record.k = node->in;
  record.n = node->out;
  record.int8 =
      ShouldQuantizeNode(options, record.k, record.n, &record.reason);
  if (record.int8) {
    node->int8 = std::make_unique<QuantizedLinear>(
        linear.weight(), linear.bias(),
        calibrator.ComputeScale(options.calibration_quantile), node->relu);
    std::vector<float>().swap(node->weight);
    std::vector<float>().swap(node->bias);
  }
  plan_nodes->push_back(std::move(record));
}

void QuantizedRatingHead::Node::Forward(
    const float* x, int rows, float* y,
    ActivationCalibrator* observe) const {
  if (observe != nullptr) observe->Observe(x, static_cast<size_t>(rows) * in);
  if (int8) {
    int8->Forward(x, rows, y);
    return;
  }
  nn::FusedLinearForward(x, weight.data(), bias.data(), y, rows, in, out,
                         relu);
}

void QuantizedRatingHead::RatingLogits(const float* user, const float* item,
                                       int rows,
                                       std::vector<float>* logits) const {
  Forward(user, item, rows, logits, nullptr);
}

void QuantizedRatingHead::Forward(
    const float* user, const float* item, int rows, std::vector<float>* logits,
    std::vector<ActivationCalibrator>* observe) const {
  OM_CHECK(rows >= 0);
  logits->resize(static_cast<size_t>(rows) * num_classes_);
  if (rows == 0) return;
  auto calibrator = [&](size_t node) {
    return observe != nullptr ? &(*observe)[node] : nullptr;
  };

  // Thread-local scratch: these are ~hundreds of KB per call at serving
  // chunk sizes, and a fresh allocation that large goes straight to mmap —
  // page faults on every request batch. Reusing the buffers keeps the head
  // allocation-free in steady state (executors are pool threads). Every
  // element is overwritten before it is read, so stale capacity is safe.
  static thread_local std::vector<float> inter_out;
  static thread_local std::vector<float> cur;
  static thread_local std::vector<float> next;

  const int feat_width = mlp_.front().in;
  if (use_interaction_) {
    inter_out.resize(static_cast<size_t>(rows) * item_width_);
    interaction_.Forward(user, rows, inter_out.data(), calibrator(0));
  }

  cur.resize(static_cast<size_t>(rows) * feat_width);
  for (int r = 0; r < rows; ++r) {
    float* dst = cur.data() + static_cast<size_t>(r) * feat_width;
    const float* u = user + static_cast<size_t>(r) * user_width_;
    const float* it = item + static_cast<size_t>(r) * item_width_;
    std::memcpy(dst, u, sizeof(float) * user_width_);
    std::memcpy(dst + user_width_, it, sizeof(float) * item_width_);
    if (use_interaction_) {
      const float* io = inter_out.data() + static_cast<size_t>(r) * item_width_;
      float* mul = dst + user_width_ + item_width_;
      for (int c = 0; c < item_width_; ++c) mul[c] = io[c] * it[c];
    }
  }

  for (size_t i = 0; i < mlp_.size(); ++i) {
    const Node& node = mlp_[i];
    if (i + 1 == mlp_.size()) {
      node.Forward(cur.data(), rows, logits->data(), calibrator(i + 1));
    } else {
      next.resize(static_cast<size_t>(rows) * node.out);
      node.Forward(cur.data(), rows, next.data(), calibrator(i + 1));
      cur.swap(next);
    }
  }
}

}  // namespace serve
}  // namespace omnimatch
