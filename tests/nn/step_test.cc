// A miniature training step that runs every op the trainer's step runs:
// its results must not depend on the thread count (the work rule at
// dispatch only decides which calls run inline).

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "gtest/gtest.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace omnimatch {
namespace nn {
namespace {

// Large enough that the conv, the gather, the mean and the contrastive
// loss cross kSerialWorkLimit and dispatch to the pool, while the small
// heads stay inline.
constexpr int kVocab = 53;
constexpr int kEmbed = 16;
constexpr int kDocLen = 32;
constexpr int kChannels = 8;
constexpr int kKernel = 3;
constexpr int kHidden = 12;
constexpr int kClasses = 3;

struct MiniModel {
  Tensor table, conv_w, conv_b, w1, b1, w2, b2;

  MiniModel() {
    Rng rng(99);
    auto param = [&](std::vector<int> shape) {
      Tensor t = Tensor::Zeros(shape, /*requires_grad=*/true);
      for (float& v : t.data()) v = rng.UniformFloat(-0.4f, 0.4f);
      return t;
    };
    table = param({kVocab, kEmbed});
    conv_w = param({kChannels, kKernel * kEmbed});
    conv_b = param({kChannels});
    w1 = param({kChannels + kEmbed, kHidden});
    b1 = param({kHidden});
    w2 = param({kHidden, kClasses});
    b2 = param({kClasses});
  }

  std::vector<Tensor*> Params() {
    return {&table, &conv_w, &conv_b, &w1, &b1, &w2, &b2};
  }
};

/// One forward + losses: gather into documents, conv + max-pool,
/// mean-pooling, concat, linear layers, Mul, Dropout, GradReverse, Scale,
/// Add, Reshape and both losses.
Tensor MiniForward(MiniModel& m, int b, int step, Rng* dropout_rng) {
  std::vector<int> ids(static_cast<size_t>(b) * kDocLen);
  std::vector<int> labels(static_cast<size_t>(b));
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>((step * 5 + i * 7 + 2) % kVocab);
  }
  for (int i = 0; i < b; ++i) {
    labels[static_cast<size_t>(i)] = (step + 2 * i) % kClasses;
  }

  Tensor docs = Gather(m.table, ids, {b, kDocLen});
  Tensor conv = TextConvMaxPool(docs, m.conv_w, m.conv_b, kKernel);
  Tensor feat = ConcatCols({conv, MeanAxis1(Reshape(Scale(docs, 0.5f),
                                                    {b, kDocLen, kEmbed}))});
  Tensor z = MatMul(feat, m.w1);
  Tensor h = Mul(Relu(AddRowBroadcast(z, m.b1)), z);
  Tensor hd = Dropout(h, 0.3f, /*training=*/true, dropout_rng);
  Tensor lin = MatMul(hd, m.w2);
  Tensor logits = Add(AddRowBroadcast(lin, m.b2), lin);
  Tensor loss = SoftmaxCrossEntropy(logits, labels);

  std::vector<int> twice = labels;
  twice.insert(twice.end(), labels.begin(), labels.end());
  Tensor scl =
      SupConLoss(ConcatRows({hd, GradReverse(hd, 0.5f)}), twice, 0.2f);
  return Add(loss, Scale(scl, 0.3f));
}

struct MiniRun {
  std::vector<float> losses;
  std::vector<std::vector<float>> params;
};

/// `steps` SGD steps on batches of `batch` documents at `threads` threads.
MiniRun RunSteps(int threads, int batch, int steps) {
  SetNumThreads(threads);
  MiniModel m;
  Rng dropout_rng(4242);
  MiniRun out;
  for (int step = 0; step < steps; ++step) {
    Tensor loss = MiniForward(m, batch, step, &dropout_rng);
    out.losses.push_back(loss.ScalarValue());
    loss.Backward();
    for (Tensor* p : m.Params()) {
      std::vector<float>& data = p->data();
      const std::vector<float>& grad = p->grad();
      for (size_t i = 0; i < data.size(); ++i) data[i] -= 0.05f * grad[i];
      p->ZeroGrad();
    }
  }
  for (Tensor* p : m.Params()) out.params.push_back(p->data());
  SetNumThreads(0);
  return out;
}

void ExpectBitIdentical(const MiniRun& a, const MiniRun& b) {
  EXPECT_EQ(a.losses, b.losses);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t p = 0; p < a.params.size(); ++p) {
    EXPECT_EQ(a.params[p], b.params[p]) << "parameter " << p;
  }
}

TEST(EagerStepTest, BitIdenticalAcrossThreadCounts) {
  const MiniRun golden = RunSteps(1, /*batch=*/64, /*steps=*/4);
  const obs::Counter* jobs =
      obs::MetricsRegistry::Global().GetCounter("threadpool.jobs");
  const obs::Counter* inline_runs =
      obs::MetricsRegistry::Global().GetCounter("threadpool.inline_runs");
  for (int threads : {2, 3, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const int64_t jobs_before = jobs->Value();
    const int64_t inline_before = inline_runs->Value();
    ExpectBitIdentical(golden, RunSteps(threads, 64, 4));
    // Both sides of the work rule ran.
    EXPECT_GT(jobs->Value(), jobs_before);
    EXPECT_GT(inline_runs->Value(), inline_before);
  }
}

}  // namespace
}  // namespace nn
}  // namespace omnimatch
