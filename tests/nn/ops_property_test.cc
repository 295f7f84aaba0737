// Property-style parameterized sweeps over the nn ops: gradient checks and
// algebraic identities across a grid of shapes, complementing the targeted
// cases in ops_test.cc.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/grad_check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace omnimatch {
namespace nn {
namespace {

constexpr double kGradTol = 3e-2;

Tensor RandomTensor(std::vector<int> shape, Rng* rng,
                    bool requires_grad = true) {
  Tensor t = Tensor::Zeros(std::move(shape), requires_grad);
  for (float& v : t.data()) v = rng->UniformFloat(-1.0f, 1.0f);
  return t;
}

// ---- MatMul grad over a grid of (M, K, N) ----

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, GradChecks) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  Tensor a = RandomTensor({m, k}, &rng);
  Tensor b = RandomTensor({k, n}, &rng);
  auto f = [&] { return SumAll(Mul(MatMul(a, b), MatMul(a, b))); };
  EXPECT_LT(MaxGradError(f, a), kGradTol);
  EXPECT_LT(MaxGradError(f, b), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 3),
                      std::make_tuple(4, 1, 4), std::make_tuple(3, 7, 2),
                      std::make_tuple(6, 2, 5)));

// ---- TextConvMaxPool grad over kernel sizes and doc lengths ----

class ConvShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvShapeTest, GradChecks) {
  auto [length, embed, kernel] = GetParam();
  Rng rng(static_cast<uint64_t>(length * 100 + embed * 10 + kernel));
  Tensor x = RandomTensor({2, length, embed}, &rng);
  Tensor w = RandomTensor({3, kernel * embed}, &rng);
  Tensor b = RandomTensor({3}, &rng);
  auto f = [&] {
    Tensor y = TextConvMaxPool(x, w, b, kernel);
    return SumAll(Mul(y, y));
  };
  EXPECT_LT(MaxGradError(f, x), kGradTol);
  EXPECT_LT(MaxGradError(f, w), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapeTest,
    ::testing::Values(std::make_tuple(3, 2, 3),   // doc length == kernel
                      std::make_tuple(5, 2, 3), std::make_tuple(8, 3, 4),
                      std::make_tuple(10, 2, 5), std::make_tuple(6, 4, 2)));

// ---- SupCon grad across batch compositions ----

class SupConCompositionTest : public ::testing::TestWithParam<int> {};

TEST_P(SupConCompositionTest, GradChecks) {
  int batch = GetParam();
  Rng rng(static_cast<uint64_t>(batch));
  Tensor feats = RandomTensor({batch, 3}, &rng);
  std::vector<int> labels(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) labels[static_cast<size_t>(i)] = i % 3;
  auto f = [&] { return SupConLoss(feats, labels, 0.2f); };
  EXPECT_LT(MaxGradError(f, feats), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(Batches, SupConCompositionTest,
                         ::testing::Values(2, 3, 4, 6, 9));

// ---- Algebraic identities ----

class IdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(IdentityTest, AddCommutes) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Tensor a = RandomTensor({GetParam(), 3}, &rng, false);
  Tensor b = RandomTensor({GetParam(), 3}, &rng, false);
  Tensor ab = Add(a, b);
  Tensor ba = Add(b, a);
  for (size_t i = 0; i < ab.data().size(); ++i) {
    EXPECT_FLOAT_EQ(ab.data()[i], ba.data()[i]);
  }
}

TEST_P(IdentityTest, ReluIsIdempotent) {
  Rng rng(static_cast<uint64_t>(GetParam() + 50));
  Tensor x = RandomTensor({GetParam(), 4}, &rng, false);
  Tensor once = Relu(x);
  Tensor twice = Relu(once);
  for (size_t i = 0; i < once.data().size(); ++i) {
    EXPECT_FLOAT_EQ(once.data()[i], twice.data()[i]);
  }
}

TEST_P(IdentityTest, SoftmaxInvariantToRowShift) {
  Rng rng(static_cast<uint64_t>(GetParam() + 100));
  Tensor x = RandomTensor({GetParam(), 5}, &rng, false);
  Tensor shifted = Add(x, Tensor::Full(x.shape(), 7.5f));
  Tensor sx = Softmax(x);
  Tensor ss = Softmax(shifted);
  for (size_t i = 0; i < sx.data().size(); ++i) {
    EXPECT_NEAR(sx.data()[i], ss.data()[i], 1e-5);
  }
}

TEST_P(IdentityTest, ReshapeRoundTripPreservesValuesAndGrads) {
  int n = GetParam();
  Rng rng(static_cast<uint64_t>(n + 200));
  Tensor x = RandomTensor({n, 6}, &rng);
  Tensor y = Reshape(Reshape(x, {n * 2, 3}), {n, 6});
  for (size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
  }
  SumAll(Mul(y, y)).Backward();
  for (size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_NEAR(x.grad()[i], 2.0f * x.data()[i], 1e-5);
  }
}

TEST_P(IdentityTest, MeanAxis1MatchesMeanRowsPerDoc) {
  int batch = GetParam();
  Rng rng(static_cast<uint64_t>(batch + 300));
  Tensor x = RandomTensor({batch, 4, 3}, &rng, false);
  Tensor batched = MeanAxis1(x);
  for (int b = 0; b < batch; ++b) {
    for (int e = 0; e < 3; ++e) {
      float expect = 0.0f;
      for (int l = 0; l < 4; ++l) {
        expect += x.data()[(static_cast<size_t>(b) * 4 + l) * 3 + e];
      }
      expect /= 4.0f;
      EXPECT_NEAR(batched.At(b, e), expect, 1e-5);
    }
  }
}

TEST_P(IdentityTest, GradReverseLambdaScalesLinearly) {
  int n = GetParam();
  Rng rng(static_cast<uint64_t>(n + 400));
  Tensor x1 = RandomTensor({n}, &rng);
  Tensor x2 = Tensor::FromData({n}, x1.data(), true);
  SumAll(GradReverse(x1, 1.0f)).Backward();
  SumAll(GradReverse(x2, 2.5f)).Backward();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x2.grad()[static_cast<size_t>(i)],
                2.5f * x1.grad()[static_cast<size_t>(i)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IdentityTest, ::testing::Values(1, 2, 4, 8));

// ---- Cross-entropy probability sanity across class counts ----

class CrossEntropyClassTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossEntropyClassTest, UniformLogitsGiveLogC) {
  int classes = GetParam();
  Tensor logits = Tensor::Zeros({3, classes});
  Tensor loss = SoftmaxCrossEntropy(logits, {0, classes - 1, classes / 2});
  EXPECT_NEAR(loss.ScalarValue(), std::log(static_cast<float>(classes)),
              1e-5);
}

TEST_P(CrossEntropyClassTest, GradChecks) {
  int classes = GetParam();
  Rng rng(static_cast<uint64_t>(classes + 500));
  Tensor logits = RandomTensor({3, classes}, &rng);
  std::vector<int> labels = {0, classes - 1, classes / 2};
  EXPECT_LT(
      MaxGradError([&] { return SoftmaxCrossEntropy(logits, labels); },
                   logits),
      kGradTol);
}

INSTANTIATE_TEST_SUITE_P(Classes, CrossEntropyClassTest,
                         ::testing::Values(2, 3, 5, 10));

}  // namespace
}  // namespace nn
}  // namespace omnimatch
