#include "nn/tensor.h"

#include <gtest/gtest.h>

#include "nn/ops.h"

namespace omnimatch {
namespace nn {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
  EXPECT_FALSE(t.requires_grad());
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorTest, FromDataPreservesContents) {
  Tensor t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, ScalarValue) {
  Tensor t = Tensor::Scalar(3.5f);
  EXPECT_EQ(t.ScalarValue(), 3.5f);
}

TEST(TensorTest, NegativeAxisIndexing) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, DefaultHandleUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, HandleSharesStorage) {
  Tensor a = Tensor::Zeros({2});
  Tensor b = a;  // cheap handle copy
  b.data()[0] = 7.0f;
  EXPECT_EQ(a.data()[0], 7.0f);
}

TEST(TensorTest, DetachCopyIsIndependent) {
  Tensor a = Tensor::FromData({2}, {1, 2}, /*requires_grad=*/true);
  Tensor b = a.DetachCopy();
  EXPECT_FALSE(b.requires_grad());
  b.data()[0] = 9.0f;
  EXPECT_EQ(a.data()[0], 1.0f);
}

TEST(TensorTest, BackwardThroughChainAccumulates) {
  // y = sum(2 * (x + x)) = 4 * sum(x); dy/dx = 4.
  Tensor x = Tensor::FromData({3}, {1, 2, 3}, /*requires_grad=*/true);
  Tensor y = SumAll(Scale(Add(x, x), 2.0f));
  EXPECT_FLOAT_EQ(y.ScalarValue(), 24.0f);
  y.Backward();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 4.0f);
}

TEST(TensorTest, BackwardTwiceAccumulatesGradients) {
  Tensor x = Tensor::FromData({2}, {1, 1}, /*requires_grad=*/true);
  SumAll(x).Backward();
  SumAll(x).Backward();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 2.0f);
}

TEST(TensorTest, ZeroGradClears) {
  Tensor x = Tensor::FromData({2}, {1, 1}, /*requires_grad=*/true);
  SumAll(x).Backward();
  x.ZeroGrad();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(TensorTest, NoGradGraphWhenNotRequired) {
  Tensor x = Tensor::FromData({2}, {1, 2});  // requires_grad = false
  Tensor y = Add(x, x);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.impl()->parents.empty());
}

TEST(TensorTest, DiamondGraphGradient) {
  // y = sum(x*x + x*x): both branches share x; dy/dx = 4x.
  Tensor x = Tensor::FromData({2}, {3, -2}, /*requires_grad=*/true);
  Tensor a = Mul(x, x);
  Tensor b = Mul(x, x);
  Tensor y = SumAll(Add(a, b));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], -8.0f);
}

TEST(TensorTest, DeepChainBackwardDoesNotOverflowStack) {
  Tensor x = Tensor::FromData({1}, {1.0f}, /*requires_grad=*/true);
  Tensor h = x;
  for (int i = 0; i < 20000; ++i) h = Scale(h, 1.0f);
  Tensor y = SumAll(h);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

TEST(ShapeTest, NumelAndToString) {
  EXPECT_EQ(ShapeNumel({2, 3, 4}), 24);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
  EXPECT_EQ(ShapeToString({}), "[]");
}

}  // namespace
}  // namespace nn
}  // namespace omnimatch
