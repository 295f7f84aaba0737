#ifndef OMNIMATCH_NN_TENSOR_H_
#define OMNIMATCH_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace omnimatch {
namespace nn {

class Tensor;

/// Reference-counted tensor storage plus autograd bookkeeping.
///
/// Users interact with `Tensor`; `TensorImpl` is an implementation detail
/// exposed only because op implementations (ops.cc) need direct access.
class TensorImpl {
 public:
  std::vector<int> shape;
  std::vector<float> data;
  /// Gradient buffer; empty until EnsureGrad() is called during backward.
  std::vector<float> grad;
  bool requires_grad = false;
  /// Accumulates gradients from this node into its parents. Set by ops.
  std::function<void()> backward_fn;
  /// Parents in the computation graph (inputs of the op that produced this).
  std::vector<std::shared_ptr<TensorImpl>> parents;

  /// Allocates (zero-filled) the gradient buffer if absent.
  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// A dense row-major float tensor with reverse-mode automatic
/// differentiation.
///
/// `Tensor` is a cheap handle (shared_ptr) to `TensorImpl`. Ops in ops.h
/// build a define-by-run graph; calling `Backward()` on a scalar output
/// propagates gradients to every reachable tensor with
/// `requires_grad == true` and frees the graph as it goes, keeping only
/// the nodes a caller still holds. A graph that never runs Backward() is
/// freed when its output handles go out of scope.
///
/// This is the paper's "PyTorch on an A100" substitute: same computational
/// graph semantics, CPU float32 execution.
class Tensor {
 public:
  /// Null handle; most APIs OM_CHECK against using one.
  Tensor() = default;

  /// Wraps an existing impl (used by ops).
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// Zero-filled tensor of the given shape.
  static Tensor Zeros(std::vector<int> shape, bool requires_grad = false);

  /// Constant-filled tensor.
  static Tensor Full(std::vector<int> shape, float value,
                     bool requires_grad = false);

  /// Tensor from explicit data; data.size() must equal the shape's volume.
  static Tensor FromData(std::vector<int> shape, std::vector<float> data,
                         bool requires_grad = false);

  /// 1x1 scalar tensor.
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  const std::vector<int>& shape() const;
  /// Size along axis `i` (supports negative axes Python-style).
  int dim(int i) const;
  /// Number of axes.
  int ndim() const;
  /// Total number of elements.
  int64_t numel() const;

  std::vector<float>& data();
  const std::vector<float>& data() const;
  std::vector<float>& grad();
  const std::vector<float>& grad() const;

  bool requires_grad() const;
  Tensor& set_requires_grad(bool value);

  /// Value of a single-element tensor.
  float ScalarValue() const;

  /// Element access for 2-D tensors (row, col).
  float At(int row, int col) const;

  /// Runs reverse-mode autodiff from this tensor, which must be scalar.
  /// Gradients accumulate (+=) into every reachable requires_grad tensor.
  /// Single-use: each node loses its backward closure and parent edges
  /// once its gradient has been propagated.
  void Backward();

  /// Zeroes this tensor's gradient buffer (if allocated).
  void ZeroGrad();

  /// A new leaf tensor sharing no graph history, copying the data.
  Tensor DetachCopy() const;

  /// Debug string: shape and the first few values.
  std::string ToString() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Volume of a shape vector; OM_CHECKs that every dim is positive.
int64_t ShapeNumel(const std::vector<int>& shape);

/// "[2, 3]"-style rendering for diagnostics.
std::string ShapeToString(const std::vector<int>& shape);

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_TENSOR_H_
