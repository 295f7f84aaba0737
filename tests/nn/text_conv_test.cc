// Property tests of the text-CNN kernel (nn/text_conv.h) against a naive
// reference that follows the kernel's documented summation order, so every
// comparison is exact: per tap, a float dot product over the embedding in
// ascending order starting from zero; the taps of a window added in
// ascending order; the first maximum wins; bias after the max, then ReLU.

#include "nn/text_conv.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "nn/gemm/text_conv_kernel.h"
#include "nn/grad_check.h"
#include "nn/ops.h"

namespace omnimatch {
namespace nn {
namespace {

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

/// One filter bank with owned storage.
struct Bank {
  int embed = 0;
  int channels = 0;
  std::vector<int> kernels;
  std::vector<std::vector<float>> weights;  // [C, k*E] per kernel size
  std::vector<std::vector<float>> biases;   // [C] per kernel size

  Bank(int embed_dim, int num_channels, std::vector<int> kernel_sizes,
       Rng* rng)
      : embed(embed_dim), channels(num_channels), kernels(kernel_sizes) {
    for (int k : kernels) {
      weights.push_back(RandomVec(static_cast<size_t>(channels) * k * embed,
                                  rng));
      biases.push_back(RandomVec(static_cast<size_t>(channels), rng));
    }
  }

  std::vector<TextConvGroup> Groups() const {
    std::vector<TextConvGroup> groups(kernels.size());
    for (size_t g = 0; g < kernels.size(); ++g) {
      groups[g].kernel_size = kernels[g];
      groups[g].weight = weights[g].data();
      groups[g].bias = biases[g].data();
    }
    return groups;
  }

  TextConvShape Shape(int batch, int length) const {
    TextConvShape shape;
    shape.batch = batch;
    shape.length = length;
    shape.embed = embed;
    shape.channels = channels;
    shape.num_groups = static_cast<int>(kernels.size());
    return shape;
  }
};

struct ConvResult {
  std::vector<float> out;
  std::vector<int> argmax;
};

ConvResult Reference(const std::vector<float>& x, const Bank& bank, int batch,
                     int length) {
  const int embed = bank.embed;
  const int channels = bank.channels;
  const int cols = static_cast<int>(bank.kernels.size()) * channels;
  ConvResult r;
  r.out.assign(static_cast<size_t>(batch) * cols, 0.0f);
  r.argmax.assign(r.out.size(), 0);
  for (int b = 0; b < batch; ++b) {
    for (size_t g = 0; g < bank.kernels.size(); ++g) {
      const int k = bank.kernels[g];
      for (int c = 0; c < channels; ++c) {
        const float* w =
            bank.weights[g].data() + static_cast<size_t>(c) * k * embed;
        float best = 0.0f;
        int best_t = 0;
        for (int t = 0; t + k <= length; ++t) {
          float s = 0.0f;
          for (int j = 0; j < k; ++j) {
            const float* row =
                x.data() + (static_cast<size_t>(b) * length + t + j) * embed;
            float tap = 0.0f;
            for (int e = 0; e < embed; ++e) tap += row[e] * w[j * embed + e];
            s = j == 0 ? tap : s + tap;
          }
          if (t == 0 || s > best) {
            best = s;
            best_t = t;
          }
        }
        const float v = best + bank.biases[g][static_cast<size_t>(c)];
        const size_t oc = static_cast<size_t>(b) * cols + g * channels + c;
        r.out[oc] = v > 0.0f ? v : 0.0f;
        r.argmax[oc] = best_t;
      }
    }
  }
  return r;
}

ConvResult Kernel(const std::vector<float>& x, const Bank& bank, int batch,
                  int length) {
  const size_t n =
      static_cast<size_t>(batch) * bank.kernels.size() * bank.channels;
  ConvResult r{std::vector<float>(n, -1.0f), {}};
  std::vector<TextConvGroup> groups = bank.Groups();
  TextConvWorkspace ws;
  ws.argmax.assign(n, -1);  // already sized: the kernel must write each one
  TextConvMaxPoolForward(x.data(), bank.Shape(batch, length), groups.data(),
                         r.out.data(), &ws);
  r.argmax = ws.argmax;
  return r;
}

// (batch, length, embed, channels, kernel sizes): L == k, batch 1, channel
// counts off every vector width, a bank whose kernels are out of order, and
// documents longer than one P block.
using ConvCase = std::tuple<int, int, int, int, std::vector<int>>;

class TextConvKernelTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(TextConvKernelTest, MatchesNaiveReferenceExactly) {
  auto [batch, length, embed, channels, kernels] = GetParam();
  Rng rng(static_cast<uint64_t>(batch * 1000 + length * 10 + channels));
  Bank bank(embed, channels, kernels, &rng);
  std::vector<float> x =
      RandomVec(static_cast<size_t>(batch) * length * embed, &rng);
  ConvResult want = Reference(x, bank, batch, length);
  ConvResult got = Kernel(x, bank, batch, length);
  ASSERT_EQ(want.out, got.out);
  ASSERT_EQ(want.argmax, got.argmax);
}

TEST_P(TextConvKernelTest, EveryIsaFlavorIsBitIdentical) {
  auto [batch, length, embed, channels, kernels] = GetParam();
  Rng rng(static_cast<uint64_t>(batch * 7 + length));
  Bank bank(embed, channels, kernels, &rng);
  std::vector<float> x =
      RandomVec(static_cast<size_t>(batch) * length * embed, &rng);
  std::vector<TextConvGroup> groups = bank.Groups();
  const size_t n = static_cast<size_t>(batch) * kernels.size() * channels;
  ConvResult base;
  for (int level = 0; level <= static_cast<int>(DetectedIsa()); ++level) {
    ConvResult r{std::vector<float>(n), std::vector<int>(n)};
    textconv::ForwardWith(textconv::SelectKernel(static_cast<IsaLevel>(level)),
                          x.data(), bank.Shape(batch, length), groups.data(),
                          r.out.data(), r.argmax.data());
    if (level == 0) {
      base = r;
      continue;
    }
    ASSERT_EQ(base.out, r.out) << IsaName(static_cast<IsaLevel>(level));
    ASSERT_EQ(base.argmax, r.argmax) << IsaName(static_cast<IsaLevel>(level));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TextConvKernelTest,
    ::testing::Values(ConvCase{2, 3, 4, 5, {3}},          // L == k
                      ConvCase{1, 20, 8, 5, {3}},         // batch 1
                      ConvCase{3, 17, 5, 13, {2, 4}},     // C % 8 != 0
                      ConvCase{4, 40, 32, 24, {3, 4, 5}},  // the model's bank
                      ConvCase{2, 12, 6, 40, {5, 1, 3}},
                      ConvCase{2, 300, 4, 9, {3, 5}}));  // several P blocks

TEST(TextConvKernelTest, AllPadDocumentPoolsTheFirstWindow) {
  // Every row identical: every window ties, and the first must win.
  Rng rng(3);
  Bank bank(6, 11, {3, 4}, &rng);
  const int length = 9;
  std::vector<float> pad = RandomVec(6, &rng);
  std::vector<float> x;
  for (int t = 0; t < length; ++t) x.insert(x.end(), pad.begin(), pad.end());
  ConvResult got = Kernel(x, bank, 1, length);
  for (int a : got.argmax) EXPECT_EQ(a, 0);
  EXPECT_EQ(Reference(x, bank, 1, length).out, got.out);
}

TEST(TextConvKernelTest, TiedMaximaKeepTheFirstWindow) {
  // Rows repeat with period 3, so windows 1, 4 and 7 score the same; a
  // filter that is nonzero only on a row-1 token peaks at all three.
  const int embed = 3, length = 10, channels = 9;
  std::vector<float> x(static_cast<size_t>(length) * embed, 0.0f);
  for (int t = 0; t < length; ++t) {
    x[static_cast<size_t>(t) * embed + t % 3] = 1.0f;
  }
  Rng rng(4);
  Bank bank(embed, channels, {2}, &rng);
  for (int c = 0; c < channels; ++c) {
    float* w = bank.weights[0].data() + static_cast<size_t>(c) * 2 * embed;
    for (int i = 0; i < 2 * embed; ++i) w[i] = 0.0f;
    w[1] = 1.0f + static_cast<float>(c);  // tap 0 sees token class 1
  }
  ConvResult got = Kernel(x, bank, 1, length);
  for (int a : got.argmax) EXPECT_EQ(a, 1);
  EXPECT_EQ(Reference(x, bank, 1, length).argmax, got.argmax);
}

Tensor RandomTensor(std::vector<int> shape, Rng* rng) {
  Tensor t = Tensor::Zeros(std::move(shape), /*requires_grad=*/true);
  for (float& v : t.data()) v = rng->UniformFloat(-1.0f, 1.0f);
  return t;
}

struct BankOpShape {
  int batch, length, embed, channels;
  std::vector<int> kernels;
};

/// The op over a filter bank, forward and backward, at one thread count.
std::vector<std::vector<float>> RunBankOp(const BankOpShape& s, int threads) {
  SetNumThreads(threads);
  Rng rng(21);
  Tensor x = RandomTensor({s.batch, s.length, s.embed}, &rng);
  std::vector<Tensor> w, b;
  for (int k : s.kernels) {
    w.push_back(RandomTensor({s.channels, k * s.embed}, &rng));
  }
  for (size_t g = 0; g < s.kernels.size(); ++g) {
    b.push_back(RandomTensor({s.channels}, &rng));
  }
  Tensor y = TextConvMaxPool(x, w, b);
  SumAll(Mul(y, y)).Backward();
  std::vector<std::vector<float>> result = {y.data(), x.grad()};
  for (size_t g = 0; g < w.size(); ++g) {
    result.push_back(w[g].grad());
    result.push_back(b[g].grad());
  }
  return result;
}

TEST(TextConvKernelTest, BitIdenticalAcrossThreadCounts) {
  // A small two-size bank, and a 64-document batch through a three-size
  // bank that spreads over every pool thread.
  for (const BankOpShape& shape : {BankOpShape{5, 23, 7, 13, {3, 5}},
                                   BankOpShape{64, 64, 32, 24, {3, 4, 5}}}) {
    SCOPED_TRACE("batch " + std::to_string(shape.batch));
    std::vector<std::vector<float>> one = RunBankOp(shape, 1);
    for (int threads : {2, 4}) {
      std::vector<std::vector<float>> many = RunBankOp(shape, threads);
      ASSERT_EQ(one.size(), many.size());
      for (size_t i = 0; i < one.size(); ++i) {
        ASSERT_EQ(one[i], many[i]) << "buffer " << i << " at " << threads
                                   << " threads";
      }
    }
  }
  SetNumThreads(0);
}

TEST(TextConvKernelTest, BankGradientsMatchFiniteDifferences) {
  Rng rng(8);
  Tensor x = RandomTensor({2, 9, 3}, &rng);
  std::vector<Tensor> w = {RandomTensor({5, 2 * 3}, &rng),
                           RandomTensor({5, 4 * 3}, &rng)};
  std::vector<Tensor> b = {RandomTensor({5}, &rng), RandomTensor({5}, &rng)};
  auto f = [&] {
    Tensor y = TextConvMaxPool(x, w, b);
    return SumAll(Mul(y, y));
  };
  constexpr double kTol = 3e-2;
  EXPECT_LT(MaxGradError(f, x), kTol);
  for (int g = 0; g < 2; ++g) {
    EXPECT_LT(MaxGradError(f, w[g]), kTol) << "weight " << g;
    EXPECT_LT(MaxGradError(f, b[g]), kTol) << "bias " << g;
  }
}

}  // namespace
}  // namespace nn
}  // namespace omnimatch
