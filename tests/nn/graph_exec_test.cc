#include "nn/graph.h"

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "gtest/gtest.h"
#include "nn/init.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {
namespace graph {
namespace {

// ---------------------------------------------------------------------------
// Arena planner properties.
// ---------------------------------------------------------------------------

bool Intersects(const ArenaRequest& a, const ArenaRequest& b) {
  return a.start <= b.end && b.start <= a.end;
}

void CheckPlacements(const std::vector<ArenaRequest>& requests,
                     const std::vector<int64_t>& offsets,
                     int64_t total_bytes) {
  ASSERT_EQ(offsets.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_GE(offsets[i], 0) << "request " << i;
    ASSERT_EQ(offsets[i] % kArenaAlign, 0) << "request " << i;
    ASSERT_LE(offsets[i] + requests[i].bytes, total_bytes) << "request " << i;
    for (size_t j = 0; j < i; ++j) {
      if (!Intersects(requests[i], requests[j])) continue;
      bool disjoint = offsets[i] + requests[i].bytes <= offsets[j] ||
                      offsets[j] + requests[j].bytes <= offsets[i];
      ASSERT_TRUE(disjoint)
          << "live-overlapping requests " << j << " and " << i
          << " share bytes: [" << offsets[j] << ", "
          << offsets[j] + requests[j].bytes << ") vs [" << offsets[i] << ", "
          << offsets[i] + requests[i].bytes << ")";
    }
  }
}

TEST(FirstFitArenaTest, EmptyPlanIsEmpty) {
  int64_t total = -1;
  std::vector<int64_t> offsets = FirstFitArena({}, &total);
  EXPECT_TRUE(offsets.empty());
  EXPECT_EQ(total, 0);
}

TEST(FirstFitArenaTest, DisjointLifetimesShareBytes) {
  // Two buffers that are never live together must reuse the same offset.
  std::vector<ArenaRequest> requests = {{0, 3, 256}, {4, 9, 256}};
  int64_t total = 0;
  std::vector<int64_t> offsets = FirstFitArena(requests, &total);
  CheckPlacements(requests, offsets, total);
  EXPECT_EQ(offsets[0], offsets[1]);
  EXPECT_EQ(total, 256);
}

TEST(FirstFitArenaTest, OverlappingLifetimesGetDisjointBytes) {
  std::vector<ArenaRequest> requests = {{0, 5, 100}, {2, 7, 100}, {5, 9, 100}};
  int64_t total = 0;
  std::vector<int64_t> offsets = FirstFitArena(requests, &total);
  CheckPlacements(requests, offsets, total);
  EXPECT_NE(offsets[0], offsets[1]);
  EXPECT_NE(offsets[1], offsets[2]);
}

TEST(FirstFitArenaTest, RandomLiveRangesNeverOverlap) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    int n = rng.UniformInt(1, 60);
    std::vector<ArenaRequest> requests;
    int64_t naive_total = 0;
    for (int i = 0; i < n; ++i) {
      ArenaRequest r;
      r.start = rng.UniformInt(0, 40);
      r.end = r.start + rng.UniformInt(0, 20);
      r.bytes = rng.UniformInt(1, 4096);
      naive_total += (r.bytes + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
      requests.push_back(r);
    }
    int64_t total = 0;
    std::vector<int64_t> offsets = FirstFitArena(requests, &total);
    CheckPlacements(requests, offsets, total);
    // Sharing can never do worse than giving every buffer its own slot.
    EXPECT_LE(total, naive_total) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Record / replay equivalence on a miniature training program that covers
// every lowered op: gather+reshape (fused), conv+max-pool, mean-pooling,
// concat, two linear layers (fused, one with ReLU), dropout, grad reversal,
// both losses, and a dead branch for DCE.
// ---------------------------------------------------------------------------

constexpr int kVocab = 23;
constexpr int kEmbed = 6;
constexpr int kDocLen = 5;
constexpr int kChannels = 4;
constexpr int kKernel = 2;
constexpr int kHidden = 8;
constexpr int kClasses = 3;

struct MiniModel {
  Tensor table, conv_w, conv_b, w1, b1, w2, b2;

  explicit MiniModel(uint64_t seed) {
    Rng rng(seed);
    auto param = [&](std::vector<int> shape) {
      Tensor t = Tensor::Zeros(shape, /*requires_grad=*/true);
      for (float& v : t.data()) {
        v = rng.UniformFloat(-0.4f, 0.4f);
      }
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

struct MiniRun {
  std::vector<double> losses;
  std::vector<std::vector<float>> params;
};

/// One forward + losses; `use_leaky_relu` injects an op with no graph
/// lowering.
Tensor MiniForward(MiniModel& m, int b, int step, Rng* dropout_rng,
                   bool use_leaky_relu) {
  std::vector<int> ids(static_cast<size_t>(b) * kDocLen);
  std::vector<int> labels(static_cast<size_t>(b));
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>((step * 7 + i * 3 + 1) % kVocab);
  }
  for (int i = 0; i < b; ++i) {
    labels[static_cast<size_t>(i)] = (step + i) % kClasses;
  }

  Tensor emb = Gather(m.table, ids);
  Tensor docs = Reshape(emb, {b, kDocLen, kEmbed});
  Tensor conv = TextConvMaxPool(docs, m.conv_w, m.conv_b, kKernel);
  Tensor mean = MeanAxis1(docs);
  Tensor feat = ConcatCols({conv, mean});
  Tensor h = Relu(AddRowBroadcast(MatMul(feat, m.w1), m.b1));
  if (use_leaky_relu) h = LeakyRelu(h);
  Tensor hd = Dropout(h, 0.3f, /*training=*/true, dropout_rng);
  Tensor logits = AddRowBroadcast(MatMul(hd, m.w2), m.b2);
  Tensor loss = SoftmaxCrossEntropy(logits, labels);

  // Contrastive term through a gradient-reversed view, so the backward
  // schedule sees GradReverse / Scale / Add and two loss roots.
  Tensor rev = GradReverse(hd, 0.5f);
  Tensor scl = SupConLoss(ConcatRows({hd, rev}),
                          [&] {
                            std::vector<int> twice = labels;
                            twice.insert(twice.end(), labels.begin(),
                                         labels.end());
                            return twice;
                          }(),
                          0.2f);

  // Dead branch: computed eagerly, never reaches the loss. DCE must drop it
  // without perturbing replay results.
  Tensor dead = Mul(Scale(conv, 2.0f), conv);
  (void)dead;

  return Add(loss, Scale(scl, 0.3f));
}

/// Trains MiniModel for one step per entry of `batch_sizes`, each step's
/// loss coming from `forward(model, batch, step, dropout_rng)`.
/// `release_before` >= 0 releases the executor's plans before that step.
template <typename Forward>
MiniRun RunSteps(int threads, GraphExecutor* exec,
                 const std::vector<int>& batch_sizes, int release_before,
                 Forward forward) {
  SetNumThreads(threads);
  MiniModel m(99);
  Rng dropout_rng(4242);
  MiniRun out;
  constexpr float kLr = 0.05f;
  for (size_t step = 0; step < batch_sizes.size(); ++step) {
    int b = batch_sizes[step];
    if (static_cast<int>(step) == release_before) exec->ReleasePlans();
    StepScope scope(exec, /*signature=*/b);
    Tensor loss = forward(m, b, static_cast<int>(step), &dropout_rng);
    out.losses.push_back(loss.ScalarValue());
    loss.Backward();
    for (Tensor* p : m.Params()) {
      std::vector<float>& data = p->data();
      const std::vector<float>& grad = p->grad();
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] -= kLr * grad[i];
      }
      p->ZeroGrad();
    }
  }
  for (Tensor* p : m.Params()) {
    out.params.push_back(p->data());
  }
  SetNumThreads(0);
  return out;
}

MiniRun RunMini(int threads, GraphExecutor* exec,
                const std::vector<int>& batch_sizes,
                bool use_leaky_relu = false, int release_before = -1) {
  return RunSteps(threads, exec, batch_sizes, release_before,
                  [use_leaky_relu](MiniModel& m, int b, int step, Rng* rng) {
                    return MiniForward(m, b, step, rng, use_leaky_relu);
                  });
}

void ExpectBitIdentical(const MiniRun& a, const MiniRun& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]) << "loss at step " << i;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t p = 0; p < a.params.size(); ++p) {
    ASSERT_EQ(a.params[p].size(), b.params[p].size());
    for (size_t i = 0; i < a.params[p].size(); ++i) {
      ASSERT_EQ(a.params[p][i], b.params[p][i])
          << "param " << p << " element " << i;
    }
  }
}

TEST(GraphExecTest, ReplayBitIdenticalToEagerAcrossThreadCounts) {
  std::vector<int> batches(6, 4);
  MiniRun golden = RunMini(1, nullptr, batches);
  for (int threads : {1, 2, 4}) {
    MiniRun eager = RunMini(threads, nullptr, batches);
    ExpectBitIdentical(golden, eager);

    GraphExecutor exec;
    MiniRun graph = RunMini(threads, &exec, batches);
    ExpectBitIdentical(golden, graph);
    EXPECT_EQ(exec.stats().plans, 1) << threads << " threads";
    EXPECT_EQ(exec.stats().record_steps, 1);
    EXPECT_EQ(exec.stats().replay_steps, 5);
    EXPECT_EQ(exec.stats().fallback_signatures, 0);
  }
}

TEST(GraphExecTest, ReleasedPlansReRecordBitIdentical) {
  std::vector<int> batches(6, 4);
  MiniRun golden = RunMini(1, nullptr, batches);
  for (int threads : {1, 4}) {
    GraphExecutor exec;
    MiniRun graph = RunMini(threads, &exec, batches, /*use_leaky_relu=*/false,
                            /*release_before=*/3);
    ExpectBitIdentical(golden, graph);
    // Steps 0 and 3 record, the other four replay; stats survive release.
    EXPECT_EQ(exec.stats().plans, 2) << threads << " threads";
    EXPECT_EQ(exec.stats().record_steps, 2);
    EXPECT_EQ(exec.stats().replay_steps, 4);
    EXPECT_EQ(exec.plan_count(), 1u);
    exec.ReleasePlans();
    EXPECT_EQ(exec.plan_count(), 0u);
    EXPECT_EQ(exec.stats().plans, 2);
  }
}

TEST(GraphExecTest, FusionAndDcePassesFire) {
  GraphExecutor exec;
  RunMini(1, &exec, {4, 4});
  // Two matmul+bias chains (one with ReLU) and one gather+reshape pair.
  EXPECT_EQ(exec.stats().fused_linear, 2);
  EXPECT_EQ(exec.stats().fused_gather, 1);
  // The dead Mul/Scale branch must be eliminated.
  EXPECT_GE(exec.stats().dead_nodes, 2);
  EXPECT_GT(exec.stats().arena_bytes_max, 0);
}

TEST(GraphExecTest, BatchShapeChangeRecordsSecondPlan) {
  std::vector<int> batches = {4, 4, 3, 4, 3};
  MiniRun eager = RunMini(1, nullptr, batches);
  GraphExecutor exec;
  MiniRun graph = RunMini(1, &exec, batches);
  ExpectBitIdentical(eager, graph);
  EXPECT_EQ(exec.stats().plans, 2);
  EXPECT_EQ(exec.stats().record_steps, 2);
  EXPECT_EQ(exec.stats().replay_steps, 3);
}

TEST(GraphExecTest, UnsupportedOpFallsBackToEager) {
  std::vector<int> batches(4, 4);
  MiniRun eager = RunMini(1, nullptr, batches, /*use_leaky_relu=*/true);
  GraphExecutor exec;
  MiniRun graph = RunMini(1, &exec, batches, /*use_leaky_relu=*/true);
  ExpectBitIdentical(eager, graph);
  // LeakyRelu has no lowering: the signature is marked permanently eager after
  // the first recording attempt and no plan is ever compiled.
  EXPECT_EQ(exec.stats().plans, 0);
  EXPECT_EQ(exec.stats().replay_steps, 0);
  EXPECT_EQ(exec.stats().fallback_signatures, 1);
}

/// MiniForward's program rewired so nothing fuses: the Gather output and
/// both MatMul outputs have two consumers each, so every recordable kind
/// (Mul, MatMul, Gather, Relu and Reshape included) replays through its own
/// kernel, and every node reaches the loss.
Tensor UnfusedForward(MiniModel& m, int b, int step, Rng* dropout_rng) {
  std::vector<int> ids(static_cast<size_t>(b) * kDocLen);
  std::vector<int> labels(static_cast<size_t>(b));
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>((step * 5 + i * 7 + 2) % kVocab);
  }
  for (int i = 0; i < b; ++i) {
    labels[static_cast<size_t>(i)] = (step + 2 * i) % kClasses;
  }

  Tensor emb = Gather(m.table, ids);
  Tensor docs = Reshape(emb, {b, kDocLen, kEmbed});
  Tensor half_docs = Reshape(Scale(emb, 0.5f), {b, kDocLen, kEmbed});
  Tensor conv = TextConvMaxPool(docs, m.conv_w, m.conv_b, kKernel);
  Tensor feat = ConcatCols({conv, MeanAxis1(half_docs)});
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

TEST(GraphExecTest, EveryOpKindReplaysBitIdentical) {
  std::vector<int> batches(5, 4);
  MiniRun golden = RunSteps(1, nullptr, batches, -1, UnfusedForward);
  for (int threads : {1, 2, 4}) {
    MiniRun eager = RunSteps(threads, nullptr, batches, -1, UnfusedForward);
    ExpectBitIdentical(golden, eager);

    GraphExecutor exec;
    MiniRun graph = RunSteps(threads, &exec, batches, -1, UnfusedForward);
    ExpectBitIdentical(golden, graph);
    EXPECT_EQ(exec.stats().plans, 1) << threads << " threads";
    EXPECT_EQ(exec.stats().replay_steps, 4);
    EXPECT_EQ(exec.stats().fallback_signatures, 0);
    // Nothing fused and nothing dead: every node ran its own kernel.
    EXPECT_EQ(exec.stats().fused_linear, 0);
    EXPECT_EQ(exec.stats().fused_gather, 0);
    EXPECT_EQ(exec.stats().dead_nodes, 0);
  }
}

TEST(GraphExecTest, TapeReleasedAfterBackward) {
  // Satellite fix: Backward() must drop each visited node's closure and
  // parent edges so the step graph dies immediately, not at handle drop.
  Tensor x = Tensor::FromData({2, 2}, {1.0f, -2.0f, 3.0f, -4.0f},
                              /*requires_grad=*/true);
  Tensor y = SumAll(Relu(x));
  y.Backward();
  EXPECT_EQ(y.impl()->backward_fn, nullptr);
  EXPECT_TRUE(y.impl()->parents.empty());
  EXPECT_EQ(x.grad()[0], 1.0f);
  EXPECT_EQ(x.grad()[1], 0.0f);
}

}  // namespace
}  // namespace graph
}  // namespace nn
}  // namespace omnimatch
