#ifndef OMNIMATCH_SERVE_QUANT_HEAD_H_
#define OMNIMATCH_SERVE_QUANT_HEAD_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/scoring.h"
#include "nn/quant.h"

namespace omnimatch {
namespace serve {

/// Int8 logits backend of the shared scoring routine (core/scoring.h) —
/// the per-request rating head (OmniMatchModel::RatingLogits in eval mode):
/// optional interaction projection, the ⊙ feature, and the three-layer
/// rating classifier MLP.
///
/// Built once at snapshot load (--quant): every GEMM node starts as a float
/// node, and one pass of this head's own forward over sampled frozen
/// representations records per-node input histograms
/// (nn::quant::ActivationCalibrator). Scales are fixed from them, weights
/// are quantized per output channel, and each GEMM node gets a planner
/// decision (int8 vs float32, from its compile-time shape) plus the ISA
/// picked once by cpuid dispatch. Nodes planned float32 keep running the
/// exact float kernels (FusedLinearForward), so a layer the planner
/// rejects costs nothing in accuracy.
///
/// Thread-safety: immutable after Build; any number of executor threads
/// may call RatingLogits concurrently. Results are bit-identical across
/// thread counts and dispatched ISAs (see nn/quant.h), though NOT to the
/// float32 path — that is the quantization error the RMSE gate bounds.
class QuantizedRatingHead final : public core::LogitsBackend {
 public:
  /// Representative eval-path inputs for calibration: flattened row-major
  /// user representation rows [rows, user_width] (invariant ⊕ specific,
  /// plus hybrid rows when hybrid inference is on — same width) and item
  /// representation rows [rows, feature_dim], pre-paired positionally.
  struct CalibrationSample {
    std::vector<float> user_rows;
    std::vector<float> item_rows;
    int rows = 0;
  };

  /// Quantizes the model's rating path. `model` is only read (frozen
  /// weights + a float calibration forward). Returns null when the sample
  /// is empty — there is nothing to calibrate against, so serving stays
  /// float32.
  static std::unique_ptr<QuantizedRatingHead> Build(
      const core::OmniMatchModel& model,
      const nn::quant::QuantOptions& options,
      const CalibrationSample& calibration);

  /// Logits [rows, num_classes] for user rows [rows, user_width] and item
  /// rows [rows, feature_dim], row-aligned. Appends nothing; `logits` is
  /// resized and overwritten.
  void RatingLogits(const float* user, const float* item, int rows,
                    std::vector<float>* logits) const override;

  int user_width() const { return user_width_; }
  int item_width() const { return item_width_; }
  int num_classes() const { return num_classes_; }
  const nn::quant::QuantPlan& plan() const { return plan_; }

 private:
  QuantizedRatingHead() = default;

  /// One GEMM node: the int8 kernel when planned, the float kernel (with
  /// retained float weights) otherwise.
  struct Node {
    Node() = default;
    /// A float node copied from a frozen Linear.
    Node(const nn::Linear& linear, bool relu)
        : weight(linear.weight().data()), bias(linear.bias().data()),
          in(linear.in_features()), out(linear.out_features()), relu(relu) {}

    std::unique_ptr<nn::quant::QuantizedLinear> int8;
    // Float path: weight kept [in, out] + bias.
    std::vector<float> weight;
    std::vector<float> bias;
    int in = 0;
    int out = 0;
    bool relu = false;

    /// y = layer(x); `observe`, when non-null, first records the input.
    void Forward(const float* x, int rows, float* y,
                 nn::quant::ActivationCalibrator* observe) const;
  };

  /// Quantizes `node` from `linear` when the planner says so (dropping its
  /// float copy) and appends its plan record.
  static void QuantizeNode(const nn::Linear& linear, const std::string& name,
                           const nn::quant::QuantOptions& options,
                           const nn::quant::ActivationCalibrator& calibrator,
                           Node* node,
                           std::vector<nn::quant::QuantNode>* plan_nodes);

  /// RatingLogits; with `observe` (one calibrator per node: interaction
  /// projection first, then the MLP layers) every node input is recorded.
  void Forward(const float* user, const float* item, int rows,
               std::vector<float>* logits,
               std::vector<nn::quant::ActivationCalibrator>* observe) const;

  bool use_interaction_ = false;
  int user_width_ = 0;
  int item_width_ = 0;
  int num_classes_ = 0;
  Node interaction_;
  std::vector<Node> mlp_;
  nn::quant::QuantPlan plan_;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_QUANT_HEAD_H_
