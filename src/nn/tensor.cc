#include "nn/tensor.h"

#include <sstream>
#include <unordered_set>

#include "common/check.h"

namespace omnimatch {
namespace nn {

int64_t ShapeNumel(const std::vector<int>& shape) {
  int64_t n = 1;
  for (int d : shape) {
    OM_CHECK_GT(d, 0) << "shape " << ShapeToString(shape);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const std::vector<int>& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor Tensor::Zeros(std::vector<int> shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  int64_t n = ShapeNumel(shape);
  impl->shape = std::move(shape);
  impl->data.assign(static_cast<size_t>(n), 0.0f);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Full(std::vector<int> shape, float value, bool requires_grad) {
  Tensor t = Zeros(std::move(shape), requires_grad);
  for (float& v : t.data()) v = value;
  return t;
}

Tensor Tensor::FromData(std::vector<int> shape, std::vector<float> data,
                        bool requires_grad) {
  int64_t n = ShapeNumel(shape);
  OM_CHECK_EQ(static_cast<size_t>(n), data.size())
      << "shape " << ShapeToString(shape);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1}, {value}, requires_grad);
}

const std::vector<int>& Tensor::shape() const {
  OM_CHECK(defined());
  return impl_->shape;
}

int Tensor::dim(int i) const {
  OM_CHECK(defined());
  int n = static_cast<int>(impl_->shape.size());
  if (i < 0) i += n;
  OM_CHECK(i >= 0 && i < n) << "axis " << i << " of " << n;
  return impl_->shape[static_cast<size_t>(i)];
}

int Tensor::ndim() const {
  OM_CHECK(defined());
  return static_cast<int>(impl_->shape.size());
}

int64_t Tensor::numel() const {
  OM_CHECK(defined());
  return static_cast<int64_t>(impl_->data.size());
}

std::vector<float>& Tensor::data() {
  OM_CHECK(defined());
  return impl_->data;
}

const std::vector<float>& Tensor::data() const {
  OM_CHECK(defined());
  return impl_->data;
}

std::vector<float>& Tensor::grad() {
  OM_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad;
}

const std::vector<float>& Tensor::grad() const {
  OM_CHECK(defined());
  const_cast<TensorImpl*>(impl_.get())->EnsureGrad();
  return impl_->grad;
}

bool Tensor::requires_grad() const {
  OM_CHECK(defined());
  return impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  OM_CHECK(defined());
  impl_->requires_grad = value;
  return *this;
}

float Tensor::ScalarValue() const {
  OM_CHECK(defined());
  OM_CHECK_EQ(impl_->data.size(), 1u);
  return impl_->data[0];
}

float Tensor::At(int row, int col) const {
  OM_CHECK(defined());
  OM_CHECK_EQ(impl_->shape.size(), 2u);
  int rows = impl_->shape[0];
  int cols = impl_->shape[1];
  OM_CHECK(row >= 0 && row < rows);
  OM_CHECK(col >= 0 && col < cols);
  return impl_->data[static_cast<size_t>(row) * cols + col];
}

namespace {

// Post-order DFS producing a topological order of the autograd graph.
// Iterative to survive deep chains (e.g. many-layer compositions). The
// order holds a reference to every node, so Backward() decides when each
// one may die.
void TopologicalOrder(const std::shared_ptr<TensorImpl>& root,
                      std::vector<std::shared_ptr<TensorImpl>>* order) {
  std::unordered_set<TensorImpl*> visited;
  // Stack of (node, next-parent-index).
  std::vector<std::pair<const std::shared_ptr<TensorImpl>*, size_t>> stack;
  stack.emplace_back(&root, 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    const std::vector<std::shared_ptr<TensorImpl>>& parents =
        (*node)->parents;
    if (idx < parents.size()) {
      const std::shared_ptr<TensorImpl>* parent = &parents[idx];
      ++idx;
      if (visited.insert(parent->get()).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order->push_back(*node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Tensor::Backward() {
  OM_CHECK(defined());
  OM_CHECK_EQ(impl_->data.size(), 1u)
      << "Backward() requires a scalar output";
  std::vector<std::shared_ptr<TensorImpl>> order;
  TopologicalOrder(impl_, &order);
  // Seed d(out)/d(out) = 1, then walk in reverse topological order.
  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = it->get();
    if (node->backward_fn) node->backward_fn();
    // The tape is single-use, and every consumer of this node ran before
    // it: nothing reads its data or gradient again. Release its closure
    // and parent edges now, and with them, unless a caller still holds it,
    // the node itself, so the allocator hands its buffers, still in cache,
    // to the gradients yet to come.
    node->backward_fn = nullptr;
    node->parents.clear();
    it->reset();
  }
}

void Tensor::ZeroGrad() {
  OM_CHECK(defined());
  if (!impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

Tensor Tensor::DetachCopy() const {
  OM_CHECK(defined());
  return FromData(impl_->shape, impl_->data, /*requires_grad=*/false);
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor" << ShapeToString(impl_->shape) << " {";
  size_t n = std::min<size_t>(impl_->data.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << impl_->data[i];
  }
  if (impl_->data.size() > n) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace nn
}  // namespace omnimatch
