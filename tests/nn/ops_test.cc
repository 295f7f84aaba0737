#include "nn/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/grad_check.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {
namespace {

constexpr double kGradTol = 2e-2;  // float32 + central differences

Tensor RandomTensor(std::vector<int> shape, Rng* rng,
                    bool requires_grad = true) {
  Tensor t = Tensor::Zeros(std::move(shape), requires_grad);
  for (float& v : t.data()) v = rng->UniformFloat(-1.0f, 1.0f);
  return t;
}

// ---------- forward-value tests ----------

TEST(OpsForwardTest, AddSubMulValues) {
  Tensor a = Tensor::FromData({2}, {1, 2});
  Tensor b = Tensor::FromData({2}, {10, 20});
  EXPECT_FLOAT_EQ(Add(a, b).data()[1], 22.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).data()[1], 40.0f);
}

TEST(OpsForwardTest, ScaleAndAddScalar) {
  Tensor a = Tensor::FromData({2}, {1, -2});
  EXPECT_FLOAT_EQ(Scale(a, 3.0f).data()[1], -6.0f);
}

TEST(OpsForwardTest, MatMulKnownValues) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

TEST(OpsForwardTest, MatMulNTMatchesExplicitTranspose) {
  Rng rng(1);
  Tensor a = RandomTensor({3, 4}, &rng, false);
  Tensor b = RandomTensor({5, 4}, &rng, false);
  Tensor bt = Tensor::Zeros({4, 5});
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      bt.data()[static_cast<size_t>(j) * 5 + i] = b.At(i, j);
    }
  }
  Tensor c1 = MatMulNT(a, b);
  Tensor c2 = MatMul(a, bt);
  for (int i = 0; i < 15; ++i) {
    EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-5);
  }
}

TEST(OpsForwardTest, ReluClampsNegative) {
  Tensor x = Tensor::FromData({4}, {-1, 0, 2, -3});
  Tensor y = Relu(x);
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[2], 2.0f);
  EXPECT_FLOAT_EQ(y.data()[3], 0.0f);
}

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Rng rng(2);
  Tensor x = RandomTensor({3, 5}, &rng, false);
  Tensor y = Softmax(x);
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 5; ++c) sum += y.At(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(OpsForwardTest, SoftmaxNumericallyStableWithLargeLogits) {
  Tensor x = Tensor::FromData({1, 3}, {1000, 1001, 1002});
  Tensor y = Softmax(x);
  EXPECT_FALSE(std::isnan(y.data()[0]));
  EXPECT_GT(y.data()[2], y.data()[1]);
}

TEST(OpsForwardTest, ConcatColsLaysOutCorrectly) {
  Tensor a = Tensor::FromData({2, 1}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor c = ConcatCols({a, b});
  EXPECT_EQ(c.dim(1), 3);
  EXPECT_FLOAT_EQ(c.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.At(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 5.0f);
}

TEST(OpsForwardTest, ConcatRowsStacks) {
  Tensor a = Tensor::FromData({1, 2}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.dim(0), 3);
  EXPECT_FLOAT_EQ(c.At(2, 1), 6.0f);
}

TEST(OpsForwardTest, GatherPicksRows) {
  Tensor table = Tensor::FromData({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor out = Gather(table, {2, 0, 2});
  EXPECT_EQ(out.dim(0), 3);
  EXPECT_FLOAT_EQ(out.At(0, 1), 21.0f);
  EXPECT_FLOAT_EQ(out.At(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.At(2, 0), 20.0f);
}

TEST(OpsForwardTest, MeanRowsAverages) {
  Tensor x = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor y = MeanRows(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 3.0f);
}

TEST(OpsForwardTest, SumAllAndMeanAll) {
  Tensor x = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(SumAll(x).ScalarValue(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(x).ScalarValue(), 2.5f);
}

TEST(OpsForwardTest, GradReverseIsIdentityForward) {
  Tensor x = Tensor::FromData({3}, {1, -2, 3}, true);
  Tensor y = GradReverse(x, 0.5f);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(OpsForwardTest, GradReverseNegatesAndScalesGradient) {
  Tensor x = Tensor::FromData({2}, {1, 2}, true);
  Tensor y = SumAll(GradReverse(x, 0.5f));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], -0.5f);
  EXPECT_FLOAT_EQ(x.grad()[1], -0.5f);
}

TEST(OpsForwardTest, DropoutEvalModeIsIdentity) {
  Rng rng(3);
  Tensor x = Tensor::FromData({4}, {1, 2, 3, 4}, true);
  Tensor y = Dropout(x, 0.5f, /*training=*/false, &rng);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(OpsForwardTest, DropoutZeroProbabilityIsIdentity) {
  Rng rng(3);
  Tensor x = Tensor::FromData({4}, {1, 2, 3, 4}, true);
  Tensor y = Dropout(x, 0.0f, /*training=*/true, &rng);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(OpsForwardTest, DropoutMasksAndRescales) {
  Rng rng(5);
  Tensor x = Tensor::Full({1000}, 1.0f, true);
  Tensor y = Dropout(x, 0.4f, /*training=*/true, &rng);
  int zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5);
    }
    sum += v;
  }
  EXPECT_NEAR(zeros / 1000.0, 0.4, 0.06);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.12);  // inverted dropout keeps expectation
}

TEST(OpsForwardTest, TextConvMaxPoolHandComputed) {
  // One doc, L=3, E=1, kernel 2, one channel: windows {1,2},{2,3}.
  Tensor x = Tensor::FromData({1, 3, 1}, {1, 2, 3});
  Tensor w = Tensor::FromData({1, 2}, {1, 1});  // sum of window
  Tensor b = Tensor::FromData({1}, {0});
  Tensor y = TextConvMaxPool(x, w, b, 2);
  EXPECT_FLOAT_EQ(y.At(0, 0), 5.0f);  // max(3, 5)
}

TEST(OpsForwardTest, TextConvMaxPoolReluClamps) {
  Tensor x = Tensor::FromData({1, 2, 1}, {-1, -2});
  Tensor w = Tensor::FromData({1, 2}, {1, 1});
  Tensor b = Tensor::FromData({1}, {0});
  Tensor y = TextConvMaxPool(x, w, b, 2);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
}

// ---------- gradient checks ----------

TEST(OpsGradTest, Add) {
  Rng rng(10);
  Tensor a = RandomTensor({3, 2}, &rng);
  Tensor b = RandomTensor({3, 2}, &rng);
  EXPECT_LT(MaxGradError([&] { return SumAll(Mul(Add(a, b), Add(a, b))); }, a),
            kGradTol);
  EXPECT_LT(MaxGradError([&] { return SumAll(Mul(Add(a, b), Add(a, b))); }, b),
            kGradTol);
}

TEST(OpsGradTest, MulAndScale) {
  Rng rng(12);
  Tensor a = RandomTensor({5}, &rng);
  Tensor b = RandomTensor({5}, &rng);
  EXPECT_LT(MaxGradError([&] { return SumAll(Scale(Mul(a, b), 1.5f)); }, a),
            kGradTol);
}

TEST(OpsGradTest, MatMul) {
  Rng rng(13);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor b = RandomTensor({4, 2}, &rng);
  auto f = [&] { return SumAll(Mul(MatMul(a, b), MatMul(a, b))); };
  EXPECT_LT(MaxGradError(f, a), kGradTol);
  EXPECT_LT(MaxGradError(f, b), kGradTol);
}

TEST(OpsGradTest, MatMulNT) {
  Rng rng(14);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor b = RandomTensor({2, 4}, &rng);
  auto f = [&] { return SumAll(Mul(MatMulNT(a, b), MatMulNT(a, b))); };
  EXPECT_LT(MaxGradError(f, a), kGradTol);
  EXPECT_LT(MaxGradError(f, b), kGradTol);
}

TEST(OpsGradTest, AddRowBroadcast) {
  Rng rng(15);
  Tensor m = RandomTensor({3, 4}, &rng);
  Tensor r = RandomTensor({4}, &rng);
  auto f = [&] {
    return SumAll(Mul(AddRowBroadcast(m, r), AddRowBroadcast(m, r)));
  };
  EXPECT_LT(MaxGradError(f, m), kGradTol);
  EXPECT_LT(MaxGradError(f, r), kGradTol);
}

TEST(OpsGradTest, ReluAwayFromKink) {
  // Keep inputs away from 0 so finite differences are valid.
  Tensor x = Tensor::FromData({4}, {-1.0f, 0.7f, 2.0f, -0.5f}, true);
  EXPECT_LT(MaxGradError([&] { return SumAll(Mul(Relu(x), Relu(x))); }, x),
            kGradTol);
}

TEST(OpsGradTest, Softmax) {
  Rng rng(17);
  Tensor x = RandomTensor({2, 4}, &rng);
  Tensor w = RandomTensor({2, 4}, &rng, false);
  // Weighted sum so the gradient isn't trivially zero (softmax rows sum to 1).
  EXPECT_LT(MaxGradError([&] { return SumAll(Mul(Softmax(x), w)); }, x),
            kGradTol);
}

TEST(OpsGradTest, ConcatColsAndRows) {
  Rng rng(18);
  Tensor a = RandomTensor({2, 3}, &rng);
  Tensor b = RandomTensor({2, 2}, &rng);
  auto f1 = [&] {
    Tensor c = ConcatCols({a, b});
    return SumAll(Mul(c, c));
  };
  EXPECT_LT(MaxGradError(f1, a), kGradTol);
  EXPECT_LT(MaxGradError(f1, b), kGradTol);

  Tensor c = RandomTensor({1, 3}, &rng);
  auto f2 = [&] {
    Tensor d = ConcatRows({a, c});
    return SumAll(Mul(d, d));
  };
  EXPECT_LT(MaxGradError(f2, c), kGradTol);
}

TEST(OpsGradTest, GatherWithRepeats) {
  Rng rng(19);
  Tensor table = RandomTensor({4, 3}, &rng);
  std::vector<int> ids = {1, 3, 1, 0};  // repeated row 1 must accumulate
  auto f = [&] {
    Tensor g = Gather(table, ids);
    return SumAll(Mul(g, g));
  };
  EXPECT_LT(MaxGradError(f, table), kGradTol);
}

TEST(OpsGradTest, MeanRows) {
  Rng rng(20);
  Tensor x = RandomTensor({3, 4}, &rng);
  auto f = [&] {
    Tensor m = MeanRows(x);
    return SumAll(Mul(m, m));
  };
  EXPECT_LT(MaxGradError(f, x), kGradTol);
}

TEST(OpsGradTest, TextConvMaxPool) {
  Rng rng(21);
  Tensor x = RandomTensor({2, 6, 3}, &rng);
  Tensor w = RandomTensor({4, 2 * 3}, &rng);
  Tensor b = RandomTensor({4}, &rng);
  auto f = [&] {
    Tensor y = TextConvMaxPool(x, w, b, 2);
    return SumAll(Mul(y, y));
  };
  EXPECT_LT(MaxGradError(f, x), kGradTol);
  EXPECT_LT(MaxGradError(f, w), kGradTol);
  EXPECT_LT(MaxGradError(f, b), kGradTol);
}

TEST(OpsGradTest, GradReverseChain) {
  // d/dx sum(GradReverse(x*x, lambda)) = -lambda * 2x.
  Tensor x = Tensor::FromData({3}, {1, 2, 3}, true);
  Tensor y = SumAll(GradReverse(Mul(x, x), 2.0f));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], -4.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], -8.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], -12.0f);
}

}  // namespace
}  // namespace nn
}  // namespace omnimatch
