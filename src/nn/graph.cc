#include "nn/graph.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "nn/elemwise.h"
#include "nn/gemm.h"
#include "nn/text_conv.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace omnimatch {
namespace nn {
namespace graph {

namespace {

obs::Counter* RecordStepsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("graph.record_steps");
  return counter;
}

obs::Counter* ReplayStepsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("graph.replay_steps");
  return counter;
}

obs::Gauge* ArenaBytesGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("graph.arena_bytes");
  return gauge;
}

int64_t AlignUp(int64_t v) {
  return (v + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
}

/// Recording longer than this means a StepScope leaked across steps.
constexpr size_t kMaxRecordedCalls = size_t{1} << 20;

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLeaf: return "Leaf";
    case OpKind::kAdd: return "Add";
    case OpKind::kMul: return "Mul";
    case OpKind::kScale: return "Scale";
    case OpKind::kAddRowBroadcast: return "AddRowBroadcast";
    case OpKind::kRelu: return "Relu";
    case OpKind::kReshape: return "Reshape";
    case OpKind::kDropout: return "Dropout";
    case OpKind::kMatMul: return "MatMul";
    case OpKind::kConcatCols: return "ConcatCols";
    case OpKind::kConcatRows: return "ConcatRows";
    case OpKind::kGather: return "Gather";
    case OpKind::kMeanAxis1: return "MeanAxis1";
    case OpKind::kGradReverse: return "GradReverse";
    case OpKind::kTextConvMaxPool: return "TextConvMaxPool";
    case OpKind::kSoftmaxCrossEntropy: return "SoftmaxCrossEntropy";
    case OpKind::kSupConLoss: return "SupConLoss";
    case OpKind::kFusedLinear: return "FusedLinear";
    case OpKind::kGatherReshape: return "GatherReshape";
    case OpKind::kNop: return "Nop";
  }
  return "Unknown";
}

std::vector<int64_t> FirstFitArena(const std::vector<ArenaRequest>& requests,
                                   int64_t* total_bytes) {
  std::vector<int64_t> offsets(requests.size(), 0);
  int64_t high = 0;
  std::vector<std::pair<int64_t, int64_t>> busy;  // [offset, offset + bytes)
  for (size_t i = 0; i < requests.size(); ++i) {
    const ArenaRequest& r = requests[i];
    OM_CHECK_GE(r.end, r.start);
    OM_CHECK_GT(r.bytes, 0);
    busy.clear();
    for (size_t j = 0; j < i; ++j) {
      const ArenaRequest& q = requests[j];
      // Closed intervals: live at the same step means bytes must not alias.
      if (q.start <= r.end && r.start <= q.end) {
        busy.emplace_back(offsets[j], offsets[j] + q.bytes);
      }
    }
    std::sort(busy.begin(), busy.end());
    int64_t cand = 0;
    for (const auto& [begin, end] : busy) {
      if (cand + r.bytes <= begin) break;  // fits in the gap before `begin`
      cand = std::max(cand, AlignUp(end));
    }
    offsets[i] = cand;
    high = std::max(high, cand + r.bytes);
  }
  *total_bytes = AlignUp(high);
  return offsets;
}

/// One IR node: either an interned leaf (parameter / input tensor) or one
/// recorded op call. After the pass pipeline a node may additionally be a
/// fusion tail (kind kFusedLinear/kGatherReshape executing a whole chain),
/// a fused-away member (kind kNop), or dead (live == false).
struct Node {
  OpKind call_kind = OpKind::kLeaf;  // matched against the op-call stream
  OpKind kind = OpKind::kLeaf;       // what actually executes
  bool is_op = false;                // recorded op (false: interned leaf)
  bool live = true;                  // false after dead-node elimination
  bool req_grad = false;
  bool fused_relu = false;  // FusedLinear tail: chain ended in a Relu
  // Pre-scheduled chunking decision: true when the node's recorded work is
  // too small to amortize a pool dispatch, so its kernels (forward and
  // backward) run inside a SerialRegion. Bit-identical either way by the
  // pool's determinism contract; this only removes scheduling overhead.
  bool serial = false;

  std::vector<int> inputs;   // node ids as the call stream presented them
  std::vector<char> in_req;  // input requires_grad at record time
  std::vector<int> xinputs;  // fusion tail: the chain's true data inputs
  std::vector<char> xin_req;
  std::vector<int> members;  // fusion tail: fused-away member node ids
  int fused_tail = -1;       // member: tail node executing its work

  std::vector<int> shape;
  int64_t numel = 0;
  int fpos = -1;     // index in Plan::call_order
  int bwd_pos = -1;  // index in Plan::bwd (-1: no backward step)
  std::shared_ptr<TensorImpl> impl;

  // Attributes. f0 and ints are dynamic (copied from the live call each
  // step); rng and shape_attr are static and verified on replay.
  float f0 = 0.0f;  // Scale s / Dropout p / GradReverse lambda / SupCon tau
  int i1 = 0;       // SupConLoss valid_anchors (recomputed each forward)
  Rng* rng = nullptr;
  std::vector<int> ints;        // Gather ids / loss labels
  std::vector<int> shape_attr;  // Reshape target shape

  // Arena placement in floats (-1: backed by impl storage — leaves and
  // scalars). scratch holds the FusedLinear relu-masked gradient.
  int64_t data_off = -1;
  int64_t grad_off = -1;
  int64_t scratch_off = -1;

  // Plan-owned op workspaces, sized once at compile and reused every step
  // (dropout mask, softmax probs, SupCon intermediates, conv argmax).
  std::vector<float> ws0, ws1, ws2, ws3, ws4, ws5, ws6, ws7;
  std::vector<double> dws0;
  std::vector<int> iws0, iws1;
};

/// A compiled step: the node IR, the forward call order, the backward
/// schedule (an exact mirror of the eager reverse-topological walk), and
/// the arena every intermediate lives in.
struct Plan {
  int64_t signature = 0;
  std::vector<Node> nodes;
  std::vector<int> call_order;
  int root = -1;

  struct BwdStep {
    int node = -1;
    // Arena grad buffers zeroed right before this step runs (their first
    // writer); eager gets the same zeros from fresh EnsureGrad() buffers.
    std::vector<int> zero_grads;
  };
  std::vector<BwdStep> bwd;
  // Impl-backed scalar grads zeroed once before the schedule runs.
  std::vector<int> scalar_grad_zero;

  std::vector<float> arena;
  int64_t arena_bytes = 0;
};

/// One StepScope's state: either recording into `rec` or replaying `plan`.
class Session {
 public:
  GraphExecutor* exec = nullptr;
  int64_t signature = 0;
  bool recording = false;
  bool replaying = false;
  bool aborted = false;
  std::string abort_reason;

  // Recording.
  std::unique_ptr<Plan> rec;
  std::unordered_map<const TensorImpl*, int> node_of;
  int root_node = -1;

  // Replaying.
  Plan* plan = nullptr;
  size_t cursor = 0;
  bool bwd_ran = false;
};

namespace {

/// Ops run only on the thread that owns the StepScope (pool workers execute
/// kernel chunks, never ops), so one thread-local is the whole story.
thread_local Session* tls_session = nullptr;

float* NodeData(Plan& p, int id) {
  Node& n = p.nodes[id];
  return n.data_off >= 0 ? p.arena.data() + n.data_off
                         : n.impl->data.data();
}

float* NodeGrad(Plan& p, int id) {
  Node& n = p.nodes[id];
  if (n.grad_off >= 0) return p.arena.data() + n.grad_off;
  n.impl->EnsureGrad();
  return n.impl->grad.data();
}

/// The text-conv kernel's arguments for node `n` on the plan's buffers. Its
/// inputs are the embedded documents, then (weight, bias) per kernel size;
/// with `grads`, each group also gets the gradient buffers its inputs want.
void ConvCall(Plan& p, const Node& n, bool grads, TextConvShape* shape,
              TextConvGroup* groups) {
  const Node& in = p.nodes[n.inputs[0]];
  shape->batch = in.shape[0];
  shape->length = in.shape[1];
  shape->embed = in.shape[2];
  shape->channels = p.nodes[n.inputs[1]].shape[0];
  shape->num_groups = static_cast<int>(n.inputs.size() - 1) / 2;
  for (int g = 0; g < shape->num_groups; ++g) {
    const int w = n.inputs[1 + 2 * g];
    const int b = n.inputs[2 + 2 * g];
    groups[g] = TextConvGroup();
    groups[g].kernel_size = p.nodes[w].shape[1] / shape->embed;
    groups[g].weight = NodeData(p, w);
    groups[g].bias = NodeData(p, b);
    if (grads && n.in_req[1 + 2 * g] != 0) {
      groups[g].weight_grad = NodeGrad(p, w);
    }
    if (grads && n.in_req[2 + 2 * g] != 0) {
      groups[g].bias_grad = NodeGrad(p, b);
    }
  }
}

/// Runs one node's forward kernel on the plan's buffers. Each case is a
/// transcription of the matching eager kernel in ops.cc/losses.cc — same
/// loops, same grains, same accumulation order — so a replayed step is
/// bit-identical to the eager step it was recorded from.
void ExecForward(Plan& p, int id) {
  Node& n = p.nodes[id];
  float* out = NodeData(p, id);
  switch (n.kind) {
    case OpKind::kAdd: {
      const float* a = NodeData(p, n.inputs[0]);
      const float* b = NodeData(p, n.inputs[1]);
      ParallelElems(static_cast<size_t>(n.numel), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) out[i] = a[i] + b[i];
      });
      break;
    }
    case OpKind::kMul: {
      const float* a = NodeData(p, n.inputs[0]);
      const float* b = NodeData(p, n.inputs[1]);
      ParallelElems(static_cast<size_t>(n.numel), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) out[i] = a[i] * b[i];
      });
      break;
    }
    case OpKind::kScale: {
      const float* a = NodeData(p, n.inputs[0]);
      float s = n.f0;
      ParallelElems(static_cast<size_t>(n.numel), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) out[i] = a[i] * s;
      });
      break;
    }
    case OpKind::kAddRowBroadcast: {
      int rows = n.shape[0];
      int cols = n.shape[1];
      const float* mv = NodeData(p, n.inputs[0]);
      const float* rv = NodeData(p, n.inputs[1]);
      ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
                  [&](int64_t r0, int64_t r1) {
                    for (int64_t r = r0; r < r1; ++r) {
                      const float* src = mv + static_cast<size_t>(r) * cols;
                      float* dst = out + static_cast<size_t>(r) * cols;
                      for (int c = 0; c < cols; ++c) dst[c] = src[c] + rv[c];
                    }
                  });
      break;
    }
    case OpKind::kRelu: {
      const float* x = NodeData(p, n.inputs[0]);
      ParallelElems(static_cast<size_t>(n.numel), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
      });
      break;
    }
    case OpKind::kReshape:
    case OpKind::kGradReverse: {
      const float* x = NodeData(p, n.inputs[0]);
      std::copy(x, x + n.numel, out);
      break;
    }
    case OpKind::kDropout: {
      const float* x = NodeData(p, n.inputs[0]);
      float keep_scale = 1.0f / (1.0f - n.f0);
      float* mask = n.ws0.data();
      size_t count = static_cast<size_t>(n.numel);
      // Serial, one Bernoulli per element: consumes the caller's RNG stream
      // exactly like the eager op.
      for (size_t i = 0; i < count; ++i) {
        mask[i] = n.rng->Bernoulli(n.f0) ? 0.0f : keep_scale;
        out[i] = x[i] * mask[i];
      }
      break;
    }
    case OpKind::kMatMul: {
      const Node& a = p.nodes[n.inputs[0]];
      const Node& b = p.nodes[n.inputs[1]];
      int m = a.shape[0], k = a.shape[1], cols = b.shape[1];
      std::fill(out, out + n.numel, 0.0f);
      GemmNN(NodeData(p, n.inputs[0]), NodeData(p, n.inputs[1]), out, m, k,
             cols);
      break;
    }
    case OpKind::kFusedLinear: {
      const Node& x = p.nodes[n.xinputs[0]];
      const Node& w = p.nodes[n.xinputs[1]];
      FusedLinearForward(NodeData(p, n.xinputs[0]), NodeData(p, n.xinputs[1]),
                         NodeData(p, n.xinputs[2]), out, x.shape[0],
                         x.shape[1], w.shape[1], n.fused_relu);
      break;
    }
    case OpKind::kConcatCols: {
      int rows = n.shape[0];
      int total_cols = n.shape[1];
      int col_offset = 0;
      for (int pid : n.inputs) {
        const Node& part = p.nodes[pid];
        int cols = part.shape[1];
        const float* pv = NodeData(p, pid);
        for (int r = 0; r < rows; ++r) {
          std::copy(pv + static_cast<size_t>(r) * cols,
                    pv + static_cast<size_t>(r + 1) * cols,
                    out + static_cast<size_t>(r) * total_cols + col_offset);
        }
        col_offset += cols;
      }
      break;
    }
    case OpKind::kConcatRows: {
      size_t offset = 0;
      for (int pid : n.inputs) {
        const Node& part = p.nodes[pid];
        const float* pv = NodeData(p, pid);
        std::copy(pv, pv + part.numel, out + offset);
        offset += static_cast<size_t>(part.numel);
      }
      break;
    }
    case OpKind::kGather:
    case OpKind::kGatherReshape: {
      bool fused = n.kind == OpKind::kGatherReshape;
      int table_id = fused ? n.xinputs[0] : n.inputs[0];
      const std::vector<int>& ids =
          fused ? p.nodes[n.members[0]].ints : n.ints;
      const Node& tbl = p.nodes[table_id];
      int vocab = tbl.shape[0];
      int width = tbl.shape[1];
      for (int id_r : ids) {
        OM_CHECK(id_r >= 0 && id_r < vocab)
            << "Gather id " << id_r << " of " << vocab;
      }
      const float* tv = NodeData(p, table_id);
      ParallelFor(0, static_cast<int64_t>(ids.size()),
                  std::max<int64_t>(1, kElemGrain / width),
                  [&](int64_t r0, int64_t r1) {
                    for (int64_t r = r0; r < r1; ++r) {
                      std::copy(tv + static_cast<size_t>(ids[r]) * width,
                                tv + static_cast<size_t>(ids[r] + 1) * width,
                                out + static_cast<size_t>(r) * width);
                    }
                  });
      break;
    }
    case OpKind::kMeanAxis1: {
      const Node& in = p.nodes[n.inputs[0]];
      int batch = in.shape[0];
      int length = in.shape[1];
      int width = in.shape[2];
      const float* xv = NodeData(p, n.inputs[0]);
      float inv = 1.0f / static_cast<float>(length);
      int64_t per_doc = static_cast<int64_t>(length) * width;
      std::fill(out, out + n.numel, 0.0f);
      ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
                  [&](int64_t b0, int64_t b1) {
                    for (int64_t b = b0; b < b1; ++b) {
                      float* orow = out + static_cast<size_t>(b) * width;
                      for (int l = 0; l < length; ++l) {
                        const float* row =
                            xv + (static_cast<size_t>(b) * length + l) * width;
                        for (int e = 0; e < width; ++e) orow[e] += row[e];
                      }
                      for (int e = 0; e < width; ++e) orow[e] *= inv;
                    }
                  });
      break;
    }
    case OpKind::kTextConvMaxPool: {
      TextConvShape shape;
      TextConvGroup groups[kMaxTextConvGroups];
      ConvCall(p, n, /*grads=*/false, &shape, groups);
      TextConvMaxPoolForward(NodeData(p, n.inputs[0]), shape, groups, out,
                             n.iws0.data());
      break;
    }
    case OpKind::kSoftmaxCrossEntropy: {
      const Node& ln = p.nodes[n.inputs[0]];
      int batch = ln.shape[0];
      int classes = ln.shape[1];
      const std::vector<int>& labels = n.ints;
      for (int y : labels) OM_CHECK(y >= 0 && y < classes) << "label " << y;
      const float* x = NodeData(p, n.inputs[0]);
      float* probs = n.ws0.data();
      float* row_loss = n.ws1.data();
      ParallelFor(0, batch, 64, [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
          const float* row = x + static_cast<size_t>(b) * classes;
          float* prow = probs + static_cast<size_t>(b) * classes;
          float max_v = row[0];
          for (int c = 1; c < classes; ++c) max_v = std::max(max_v, row[c]);
          float sum = 0.0f;
          for (int c = 0; c < classes; ++c) {
            prow[c] = std::exp(row[c] - max_v);
            sum += prow[c];
          }
          float inv = 1.0f / sum;
          for (int c = 0; c < classes; ++c) prow[c] *= inv;
          row_loss[b] = -std::log(std::max(prow[labels[b]], 1e-12f));
        }
      });
      double total = 0.0;
      for (int b = 0; b < batch; ++b) total += row_loss[b];
      out[0] = static_cast<float>(total / batch);
      break;
    }
    case OpKind::kSupConLoss: {
      const Node& fn = p.nodes[n.inputs[0]];
      int batch = fn.shape[0];
      int dim = fn.shape[1];
      const std::vector<int>& labels = n.ints;
      const float* z = NodeData(p, n.inputs[0]);
      float* norm_feats = n.ws0.data();
      float* norms = n.ws1.data();
      float* sims = n.ws2.data();
      float* probs = n.ws3.data();
      float* lse = n.ws4.data();
      double* anchor_loss = n.dws0.data();
      int* pos_count = n.iws1.data();
      ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* row = z + static_cast<size_t>(i) * dim;
          double sq = 0.0;
          for (int d = 0; d < dim; ++d) {
            sq += static_cast<double>(row[d]) * row[d];
          }
          float norm = static_cast<float>(std::sqrt(sq)) + 1e-8f;
          norms[i] = norm;
          float* nrow = norm_feats + static_cast<size_t>(i) * dim;
          for (int d = 0; d < dim; ++d) nrow[d] = row[d] / norm;
        }
      });
      const float inv_tau = 1.0f / n.f0;
      size_t bb = static_cast<size_t>(batch) * batch;
      std::fill(sims, sims + bb, 0.0f);
      GemmNT(norm_feats, norm_feats, sims, batch, dim, batch);
      for (size_t i = 0; i < bb; ++i) sims[i] *= inv_tau;
      // probs was zeroed at compile; the diagonal is only ever multiplied
      // (never written), so it stays exactly 0.0f across steps — the same
      // value the eager op's fresh zero-initialized buffer holds.
      ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          float max_v = -1e30f;
          for (int j = 0; j < batch; ++j) {
            if (j != i) {
              max_v =
                  std::max(max_v, sims[static_cast<size_t>(i) * batch + j]);
            }
          }
          double sum = 0.0;
          for (int j = 0; j < batch; ++j) {
            if (j == i) continue;
            double e =
                std::exp(sims[static_cast<size_t>(i) * batch + j] - max_v);
            probs[static_cast<size_t>(i) * batch + j] = static_cast<float>(e);
            sum += e;
          }
          lse[i] = max_v + static_cast<float>(std::log(sum));
          float inv = static_cast<float>(1.0 / sum);
          for (int j = 0; j < batch; ++j) {
            probs[static_cast<size_t>(i) * batch + j] *= inv;
          }
        }
      });
      ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          int cnt = 0;
          double pos_sum = 0.0;
          for (int j = 0; j < batch; ++j) {
            if (j != i && labels[j] == labels[i]) {
              ++cnt;
              pos_sum += sims[static_cast<size_t>(i) * batch + j];
            }
          }
          pos_count[i] = cnt;
          if (cnt > 0) anchor_loss[i] = -(pos_sum / cnt - lse[i]);
        }
      });
      int valid_anchors = 0;
      double total = 0.0;
      for (int i = 0; i < batch; ++i) {
        if (pos_count[i] > 0) {
          ++valid_anchors;
          total += anchor_loss[i];
        }
      }
      // The recorded step had positive pairs (degenerate batches abort the
      // recording), and the trainer duplicates the SCL label set, so every
      // replayed batch does too.
      OM_CHECK_GT(valid_anchors, 0)
          << "SupConLoss: replayed batch has no positive pairs";
      n.i1 = valid_anchors;
      out[0] = static_cast<float>(total / valid_anchors);
      break;
    }
    default:
      OM_CHECK(false) << "graph exec: no forward kernel for "
                      << OpKindName(n.kind);
  }
}

/// Runs one backward step: zero this step's first-touched grad buffers,
/// then the node's backward kernel (transcribed from the eager closures).
void ExecBackwardStep(Plan& p, const Plan::BwdStep& step) {
  for (int gid : step.zero_grads) {
    Node& g = p.nodes[gid];
    float* buf = p.arena.data() + g.grad_off;
    std::fill(buf, buf + g.numel, 0.0f);
  }
  int id = step.node;
  Node& n = p.nodes[id];
  switch (n.kind) {
    case OpKind::kAdd: {
      const float* og = NodeGrad(p, id);
      for (int j = 0; j < 2; ++j) {
        if (!n.in_req[j]) continue;
        float* ig = NodeGrad(p, n.inputs[j]);
        ParallelElems(static_cast<size_t>(n.numel),
                      [&](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) ig[i] += og[i];
                      });
      }
      break;
    }
    case OpKind::kMul: {
      const float* og = NodeGrad(p, id);
      if (n.in_req[0]) {
        float* ag = NodeGrad(p, n.inputs[0]);
        const float* bd = NodeData(p, n.inputs[1]);
        ParallelElems(static_cast<size_t>(n.numel),
                      [&](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) {
                          ag[i] += og[i] * bd[i];
                        }
                      });
      }
      if (n.in_req[1]) {
        float* bg = NodeGrad(p, n.inputs[1]);
        const float* ad = NodeData(p, n.inputs[0]);
        ParallelElems(static_cast<size_t>(n.numel),
                      [&](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) {
                          bg[i] += og[i] * ad[i];
                        }
                      });
      }
      break;
    }
    case OpKind::kScale: {
      const float* og = NodeGrad(p, id);
      float* ag = NodeGrad(p, n.inputs[0]);
      float s = n.f0;
      ParallelElems(static_cast<size_t>(n.numel), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) ag[i] += s * og[i];
      });
      break;
    }
    case OpKind::kAddRowBroadcast: {
      int rows = n.shape[0];
      int cols = n.shape[1];
      const float* og = NodeGrad(p, id);
      if (n.in_req[0]) {
        float* mg = NodeGrad(p, n.inputs[0]);
        ParallelElems(static_cast<size_t>(n.numel),
                      [&](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) mg[i] += og[i];
                      });
      }
      if (n.in_req[1]) {
        float* rg = NodeGrad(p, n.inputs[1]);
        ParallelFor(0, cols, std::max<int64_t>(1, kElemGrain / rows),
                    [&](int64_t c0, int64_t c1) {
                      for (int r = 0; r < rows; ++r) {
                        const float* grow = og + static_cast<size_t>(r) * cols;
                        for (int64_t c = c0; c < c1; ++c) rg[c] += grow[c];
                      }
                    });
      }
      break;
    }
    case OpKind::kRelu: {
      const float* og = NodeGrad(p, id);
      const float* xd = NodeData(p, n.inputs[0]);
      float* xg = NodeGrad(p, n.inputs[0]);
      ParallelElems(static_cast<size_t>(n.numel), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (xd[i] > 0.0f) xg[i] += og[i];
        }
      });
      break;
    }
    case OpKind::kReshape: {
      const float* og = NodeGrad(p, id);
      float* xg = NodeGrad(p, n.inputs[0]);
      for (int64_t i = 0; i < n.numel; ++i) xg[i] += og[i];
      break;
    }
    case OpKind::kGradReverse: {
      const float* og = NodeGrad(p, id);
      float* xg = NodeGrad(p, n.inputs[0]);
      float lambda = n.f0;
      for (int64_t i = 0; i < n.numel; ++i) xg[i] -= lambda * og[i];
      break;
    }
    case OpKind::kDropout: {
      const float* og = NodeGrad(p, id);
      const float* mask = n.ws0.data();
      float* xg = NodeGrad(p, n.inputs[0]);
      ParallelElems(static_cast<size_t>(n.numel), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) xg[i] += og[i] * mask[i];
      });
      break;
    }
    case OpKind::kMatMul: {
      const Node& a = p.nodes[n.inputs[0]];
      const Node& b = p.nodes[n.inputs[1]];
      int m = a.shape[0], k = a.shape[1], cols = b.shape[1];
      const float* og = NodeGrad(p, id);
      if (n.in_req[0]) {
        GemmNT(og, NodeData(p, n.inputs[1]), NodeGrad(p, n.inputs[0]), m,
               cols, k);
      }
      if (n.in_req[1]) {
        GemmTN(NodeData(p, n.inputs[0]), og, NodeGrad(p, n.inputs[1]), k, m,
               cols);
      }
      break;
    }
    case OpKind::kFusedLinear: {
      const Node& x = p.nodes[n.xinputs[0]];
      const Node& w = p.nodes[n.xinputs[1]];
      int m = x.shape[0], k = x.shape[1], cols = w.shape[1];
      float* og = NodeGrad(p, id);
      const float* gsrc = og;
      if (n.fused_relu) {
        // The fused chain elided the pre-activation tensor t; out > 0 iff
        // t > 0 (ReLU keeps positives as-is), so the eager Relu backward's
        // mask is reproducible from the fused output.
        const float* od = NodeData(p, id);
        float* scratch = p.arena.data() + n.scratch_off;
        ParallelElems(static_cast<size_t>(n.numel),
                      [&](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) {
                          scratch[i] = od[i] > 0.0f ? og[i] : 0.0f;
                        }
                      });
        gsrc = scratch;
      }
      if (n.xin_req[2]) {
        float* bg = NodeGrad(p, n.xinputs[2]);
        ParallelFor(0, cols, std::max<int64_t>(1, kElemGrain / m),
                    [&](int64_t c0, int64_t c1) {
                      for (int r = 0; r < m; ++r) {
                        const float* grow =
                            gsrc + static_cast<size_t>(r) * cols;
                        for (int64_t c = c0; c < c1; ++c) bg[c] += grow[c];
                      }
                    });
      }
      if (n.xin_req[0]) {
        GemmNT(gsrc, NodeData(p, n.xinputs[1]), NodeGrad(p, n.xinputs[0]), m,
               cols, k);
      }
      if (n.xin_req[1]) {
        GemmTN(NodeData(p, n.xinputs[0]), gsrc, NodeGrad(p, n.xinputs[1]), k,
               m, cols);
      }
      break;
    }
    case OpKind::kConcatCols: {
      int rows = n.shape[0];
      int total_cols = n.shape[1];
      const float* og = NodeGrad(p, id);
      int offset = 0;
      for (size_t pi = 0; pi < n.inputs.size(); ++pi) {
        const Node& part = p.nodes[n.inputs[pi]];
        int cols = part.shape[1];
        if (n.in_req[pi]) {
          float* base = NodeGrad(p, n.inputs[pi]);
          for (int r = 0; r < rows; ++r) {
            const float* src =
                og + static_cast<size_t>(r) * total_cols + offset;
            float* dst = base + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) dst[c] += src[c];
          }
        }
        offset += cols;
      }
      break;
    }
    case OpKind::kConcatRows: {
      const float* og = NodeGrad(p, id);
      size_t off = 0;
      for (size_t pi = 0; pi < n.inputs.size(); ++pi) {
        const Node& part = p.nodes[n.inputs[pi]];
        size_t count = static_cast<size_t>(part.numel);
        if (n.in_req[pi]) {
          float* dst = NodeGrad(p, n.inputs[pi]);
          for (size_t i = 0; i < count; ++i) dst[i] += og[off + i];
        }
        off += count;
      }
      break;
    }
    case OpKind::kGather:
    case OpKind::kGatherReshape: {
      bool fused = n.kind == OpKind::kGatherReshape;
      int table_id = fused ? n.xinputs[0] : n.inputs[0];
      const std::vector<int>& ids =
          fused ? p.nodes[n.members[0]].ints : n.ints;
      const Node& tbl = p.nodes[table_id];
      int vocab = tbl.shape[0];
      int width = tbl.shape[1];
      float* tg = NodeGrad(p, table_id);
      const float* og = NodeGrad(p, id);
      // Destination-sharded scatter-add, identical to the eager Gather
      // backward (same shard size, same ascending id rescan per shard).
      int64_t work = static_cast<int64_t>(ids.size()) * width;
      int64_t shard_rows =
          work < kElemGrain
              ? vocab
              : std::max<int64_t>(64, vocab / (GetNumThreads() * 4));
      ParallelFor(0, vocab, shard_rows, [&](int64_t lo, int64_t hi) {
        for (size_t r = 0; r < ids.size(); ++r) {
          int id_r = ids[r];
          if (id_r < lo || id_r >= hi) continue;
          float* dst = tg + static_cast<size_t>(id_r) * width;
          const float* src = og + r * width;
          for (int c = 0; c < width; ++c) dst[c] += src[c];
        }
      });
      break;
    }
    case OpKind::kMeanAxis1: {
      const Node& in = p.nodes[n.inputs[0]];
      int batch = in.shape[0];
      int length = in.shape[1];
      int width = in.shape[2];
      const float* og = NodeGrad(p, id);
      float* xg = NodeGrad(p, n.inputs[0]);
      float inv = 1.0f / static_cast<float>(length);
      int64_t per_doc = static_cast<int64_t>(length) * width;
      ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
                  [&](int64_t b0, int64_t b1) {
                    for (int64_t b = b0; b < b1; ++b) {
                      const float* grow = og + static_cast<size_t>(b) * width;
                      for (int l = 0; l < length; ++l) {
                        float* row =
                            xg + (static_cast<size_t>(b) * length + l) * width;
                        for (int e = 0; e < width; ++e) {
                          row[e] += inv * grow[e];
                        }
                      }
                    }
                  });
      break;
    }
    case OpKind::kTextConvMaxPool: {
      TextConvShape shape;
      TextConvGroup groups[kMaxTextConvGroups];
      ConvCall(p, n, /*grads=*/true, &shape, groups);
      TextConvMaxPoolBackward(
          NodeData(p, n.inputs[0]), shape, groups, NodeData(p, id),
          NodeGrad(p, id), n.iws0.data(),
          n.in_req[0] != 0 ? NodeGrad(p, n.inputs[0]) : nullptr);
      break;
    }
    case OpKind::kSoftmaxCrossEntropy: {
      const Node& ln = p.nodes[n.inputs[0]];
      int batch = ln.shape[0];
      int classes = ln.shape[1];
      const float* og = NodeGrad(p, id);
      float* lg = NodeGrad(p, n.inputs[0]);
      const float* probs = n.ws0.data();
      float g = og[0] / static_cast<float>(batch);
      for (int b = 0; b < batch; ++b) {
        const float* prow = probs + static_cast<size_t>(b) * classes;
        float* drow = lg + static_cast<size_t>(b) * classes;
        int y = n.ints[b];
        for (int c = 0; c < classes; ++c) {
          drow[c] += g * (prow[c] - (c == y ? 1.0f : 0.0f));
        }
      }
      break;
    }
    case OpKind::kSupConLoss: {
      const Node& fn = p.nodes[n.inputs[0]];
      int batch = fn.shape[0];
      int dim = fn.shape[1];
      const std::vector<int>& labels = n.ints;
      const float* og = NodeGrad(p, id);
      float* dst_base = NodeGrad(p, n.inputs[0]);
      const float* norm_feats = n.ws0.data();
      const float* norms = n.ws1.data();
      const float* probs = n.ws3.data();
      float* gmat = n.ws5.data();
      float* sym = n.ws6.data();
      float* dnorm = n.ws7.data();
      const int* pos_count = n.iws1.data();
      const float inv_tau = 1.0f / n.f0;
      int valid_anchors = n.i1;
      float gscale = og[0] / static_cast<float>(valid_anchors);
      size_t bb = static_cast<size_t>(batch) * batch;
      // Rows with no positives and the diagonal are skipped below, so the
      // whole matrix is re-zeroed first (eager uses a fresh zeroed vector).
      std::fill(gmat, gmat + bb, 0.0f);
      ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          int cnt = pos_count[i];
          if (cnt == 0) continue;
          float inv_cnt = 1.0f / static_cast<float>(cnt);
          for (int j = 0; j < batch; ++j) {
            if (j == i) continue;
            float g = probs[static_cast<size_t>(i) * batch + j];
            if (labels[j] == labels[i]) g -= inv_cnt;
            gmat[static_cast<size_t>(i) * batch + j] = g * gscale;
          }
        }
      });
      ParallelFor(0, batch, 8, [&](int64_t k0, int64_t k1) {
        for (int64_t k = k0; k < k1; ++k) {
          for (int j = 0; j < batch; ++j) {
            sym[static_cast<size_t>(k) * batch + j] =
                (gmat[static_cast<size_t>(k) * batch + j] +
                 gmat[static_cast<size_t>(j) * batch + k]) *
                inv_tau;
          }
        }
      });
      std::fill(dnorm, dnorm + static_cast<size_t>(batch) * dim, 0.0f);
      GemmNN(sym, norm_feats, dnorm, batch, batch, dim);
      ParallelFor(0, batch, 8, [&](int64_t k0, int64_t k1) {
        for (int64_t k = k0; k < k1; ++k) {
          const float* zk = norm_feats + static_cast<size_t>(k) * dim;
          const float* dk = dnorm + static_cast<size_t>(k) * dim;
          float* dst = dst_base + static_cast<size_t>(k) * dim;
          float dot = 0.0f;
          for (int d = 0; d < dim; ++d) dot += dk[d] * zk[d];
          float inv_norm = 1.0f / norms[k];
          for (int d = 0; d < dim; ++d) {
            dst[d] += (dk[d] - dot * zk[d]) * inv_norm;
          }
        }
      });
      break;
    }
    default:
      OM_CHECK(false) << "graph exec: no backward kernel for "
                      << OpKindName(n.kind);
  }
}

/// The compiled backward, installed as the root impl's backward_fn. Runs
/// only inside the replay StepScope that owns the plan.
void RunCompiledBackward(Plan* p) {
  Session* s = tls_session;
  OM_CHECK(s != nullptr && s->replaying && s->plan == p)
      << "compiled backward invoked outside its replay step";
  OM_CHECK(!s->bwd_ran) << "compiled backward invoked twice in one step";
  OM_CHECK_EQ(s->cursor, p->call_order.size())
      << "Backward() before the recorded forward finished";
  s->bwd_ran = true;
  for (int id : p->scalar_grad_zero) {
    Node& n = p->nodes[id];
    n.impl->EnsureGrad();
    std::fill(n.impl->grad.begin(), n.impl->grad.end(), 0.0f);
  }
  for (const Plan::BwdStep& step : p->bwd) {
    if (p->nodes[step.node].serial) {
      SerialRegion serial;
      ExecBackwardStep(*p, step);
    } else {
      ExecBackwardStep(*p, step);
    }
  }
}

/// Interns an op input: an already-recorded node keeps its id; anything
/// else (parameter, batch input) becomes a leaf node.
int InternInput(Session* s, const Tensor& t) {
  auto it = s->node_of.find(t.impl().get());
  if (it != s->node_of.end()) return it->second;
  Plan& p = *s->rec;
  Node leaf;
  leaf.call_kind = OpKind::kLeaf;
  leaf.kind = OpKind::kLeaf;
  leaf.shape = t.shape();
  leaf.numel = static_cast<int64_t>(t.data().size());
  leaf.req_grad = t.requires_grad();
  leaf.impl = t.impl();
  int id = static_cast<int>(p.nodes.size());
  p.nodes.push_back(std::move(leaf));
  s->node_of.emplace(t.impl().get(), id);
  return id;
}

/// --- pass pipeline -------------------------------------------------------

/// Dead-node elimination: roots are the backward root, every scalar (the
/// trainer reads loss components), and every RNG-consuming node (a skipped
/// Dropout would shift the stream for later steps). Dead nodes stay in the
/// call order for cursor matching but never execute and get no buffers.
void PassDeadNodes(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile.dce");
  std::vector<char> live(p.nodes.size(), 0);
  std::vector<int> work;
  auto mark = [&](int id) {
    if (!live[id]) {
      live[id] = 1;
      work.push_back(id);
    }
  };
  mark(p.root);
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (n.numel == 1 || n.kind == OpKind::kDropout) mark(id);
  }
  while (!work.empty()) {
    int id = work.back();
    work.pop_back();
    for (int in : p.nodes[id].inputs) mark(in);
  }
  for (int id : p.call_order) {
    if (!live[id]) {
      p.nodes[id].live = false;
      stats->dead_nodes += 1;
    }
  }
}

/// Fusion over strictly call-adjacent chains whose intermediates have a
/// single consumer: MatMul + AddRowBroadcast (+ Relu) -> kFusedLinear, and
/// Gather + Reshape -> kGatherReshape. Members become kNop (still matched
/// against the call stream, never executed, no buffers).
void PassFusion(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile.fuse");
  std::vector<int> consumers(p.nodes.size(), 0);
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (!n.live) continue;
    for (int in : n.inputs) ++consumers[in];
  }
  for (size_t i = 0; i + 1 < p.call_order.size(); ++i) {
    int aid = p.call_order[i];
    Node& a = p.nodes[aid];
    if (!a.live || a.numel == 1) continue;
    if (a.kind == OpKind::kMatMul) {
      int bid = p.call_order[i + 1];
      Node& b = p.nodes[bid];
      if (!b.live || b.kind != OpKind::kAddRowBroadcast ||
          b.inputs[0] != aid || consumers[aid] != 1 || b.numel == 1) {
        continue;
      }
      int tail = bid;
      bool relu = false;
      if (i + 2 < p.call_order.size()) {
        int cid = p.call_order[i + 2];
        Node& c = p.nodes[cid];
        if (c.live && c.kind == OpKind::kRelu && c.inputs[0] == bid &&
            consumers[bid] == 1 && c.numel != 1) {
          tail = cid;
          relu = true;
        }
      }
      Node& t = p.nodes[tail];
      t.kind = OpKind::kFusedLinear;
      t.fused_relu = relu;
      t.xinputs = {a.inputs[0], a.inputs[1], b.inputs[1]};
      t.xin_req = {a.in_req[0], a.in_req[1], b.in_req[1]};
      t.members = relu ? std::vector<int>{aid, bid} : std::vector<int>{aid};
      a.kind = OpKind::kNop;
      a.fused_tail = tail;
      if (relu) {
        b.kind = OpKind::kNop;
        b.fused_tail = tail;
      }
      stats->fused_linear += 1;
      i += relu ? 2 : 1;
    } else if (a.kind == OpKind::kGather) {
      int bid = p.call_order[i + 1];
      Node& b = p.nodes[bid];
      if (!b.live || b.kind != OpKind::kReshape || b.inputs[0] != aid ||
          consumers[aid] != 1 || b.numel == 1) {
        continue;
      }
      b.kind = OpKind::kGatherReshape;
      b.xinputs = {a.inputs[0]};
      b.xin_req = {a.in_req[0]};
      b.members = {aid};
      a.kind = OpKind::kNop;
      a.fused_tail = bid;
      stats->fused_gather += 1;
      i += 1;
    }
  }
}

/// Backward schedule: an exact simulation of tensor.cc's TopologicalOrder
/// over the recorded graph (a node's eager `parents` are its call inputs,
/// present iff it requires grad), reversed. Fused members emit no step —
/// their combined backward runs at the tail's position, which is where the
/// eager schedule placed the chain (the members are consecutive among the
/// executing steps).
void PassBackwardSchedule(Plan& p) {
  OM_TRACE_SPAN("graph.compile.schedule");
  std::vector<int> order;
  std::vector<char> visited(p.nodes.size(), 0);
  std::vector<std::pair<int, size_t>> stack;
  stack.emplace_back(p.root, 0);
  visited[p.root] = 1;
  const std::vector<int> kNoParents;
  while (!stack.empty()) {
    auto& [id, idx] = stack.back();
    const Node& n = p.nodes[id];
    const std::vector<int>& parents =
        (n.is_op && n.req_grad) ? n.inputs : kNoParents;
    if (idx < parents.size()) {
      int parent = parents[idx];
      ++idx;
      if (!visited[parent]) {
        visited[parent] = 1;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(id);
      stack.pop_back();
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int id = *it;
    Node& n = p.nodes[id];
    // Leaves have no backward_fn; kNop members run at their fusion tail.
    if (!n.is_op || !n.req_grad || n.kind == OpKind::kNop) continue;
    n.bwd_pos = static_cast<int>(p.bwd.size());
    p.bwd.push_back({id, {}});
  }
  for (const Plan::BwdStep& step : p.bwd) {
    if (p.nodes[step.node].numel == 1 && step.node != p.root) {
      p.scalar_grad_zero.push_back(step.node);
    }
  }
}

/// The node ids whose grads `n`'s backward step writes.
void GradTargets(const Node& n, std::vector<int>* out) {
  out->clear();
  if (n.kind == OpKind::kFusedLinear || n.kind == OpKind::kGatherReshape) {
    for (size_t j = 0; j < n.xinputs.size(); ++j) {
      if (n.xin_req[j]) out->push_back(n.xinputs[j]);
    }
  } else {
    for (size_t j = 0; j < n.inputs.size(); ++j) {
      if (n.in_req[j]) out->push_back(n.inputs[j]);
    }
  }
}

/// Liveness analysis + first-fit arena assignment for every intermediate
/// data buffer, grad buffer and kernel scratch slab. Positions: forward
/// call i is step i; backward step j is step call_order.size() + j.
void PassArena(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile.arena");
  int F = static_cast<int>(p.call_order.size());
  struct Placement {
    int node;
    int which;  // 0 = data, 1 = grad, 2 = scratch
  };
  std::vector<Placement> placements;
  std::vector<ArenaRequest> requests;

  // Grad buffers: a schedule node's grad is written by its consumers'
  // (earlier) steps and read at its own step. The first writer zeroes it.
  std::vector<int> first_touch(p.nodes.size(), INT_MAX);
  std::vector<int> targets;
  for (size_t i = 0; i < p.bwd.size(); ++i) {
    GradTargets(p.nodes[p.bwd[i].node], &targets);
    for (int t : targets) {
      first_touch[t] = std::min(first_touch[t], static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < p.bwd.size(); ++i) {
    int gid = p.bwd[i].node;
    Node& g = p.nodes[gid];
    if (g.numel == 1) continue;  // impl-backed, zeroed in the preamble
    int ft = std::min(first_touch[gid], static_cast<int>(i));
    p.bwd[ft].zero_grads.push_back(gid);
    placements.push_back({gid, 1});
    requests.push_back({F + ft, F + static_cast<int>(i), g.numel * 4});
  }

  // Data buffers: live from the producing call to the last read. Forward
  // reads happen at each consumer's call; backward reads depend on the
  // kernel (see ExecBackwardStep).
  std::vector<int> data_end(p.nodes.size(), -1);
  auto read_at = [&](int nid, int pos) {
    data_end[nid] = std::max(data_end[nid], pos);
  };
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (!n.live || n.kind == OpKind::kNop) continue;
    const std::vector<int>& ins = n.xinputs.empty() ? n.inputs : n.xinputs;
    for (int in : ins) read_at(in, n.fpos);
  }
  for (size_t i = 0; i < p.bwd.size(); ++i) {
    const Node& n = p.nodes[p.bwd[i].node];
    int pos = F + static_cast<int>(i);
    switch (n.kind) {
      case OpKind::kMul:
      case OpKind::kMatMul:
        read_at(n.inputs[0], pos);
        read_at(n.inputs[1], pos);
        break;
      case OpKind::kRelu:
        read_at(n.inputs[0], pos);
        break;
      case OpKind::kTextConvMaxPool:
        for (int in : n.inputs) read_at(in, pos);  // docs, filters, biases
        read_at(p.bwd[i].node, pos);  // own output: the pooling/ReLU mask
        break;
      case OpKind::kFusedLinear:
        read_at(n.xinputs[0], pos);
        read_at(n.xinputs[1], pos);
        if (n.fused_relu) read_at(p.bwd[i].node, pos);
        break;
      default:
        break;  // everything else reads only grads / workspaces
    }
  }
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (!n.live || n.kind == OpKind::kNop || n.numel == 1) continue;
    placements.push_back({id, 0});
    requests.push_back(
        {n.fpos, std::max(data_end[id], n.fpos), n.numel * 4});
  }

  // Kernel scratch: the FusedLinear relu-masked gradient (its own backward
  // step only). The text conv needs none: its workspace is per thread.
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (!n.live) continue;
    if (n.kind == OpKind::kFusedLinear && n.fused_relu && n.bwd_pos >= 0) {
      placements.push_back({id, 2});
      requests.push_back({F + n.bwd_pos, F + n.bwd_pos, n.numel * 4});
    }
  }

  int64_t total_bytes = 0;
  std::vector<int64_t> offsets = FirstFitArena(requests, &total_bytes);
  p.arena.assign(static_cast<size_t>(total_bytes / 4), 0.0f);
  p.arena_bytes = total_bytes;
  for (size_t i = 0; i < placements.size(); ++i) {
    Node& n = p.nodes[placements[i].node];
    int64_t off = offsets[i] / 4;
    switch (placements[i].which) {
      case 0: n.data_off = off; break;
      case 1: n.grad_off = off; break;
      default: n.scratch_off = off; break;
    }
  }
  stats->arena_bytes_max = std::max(stats->arena_bytes_max, total_bytes);
}

/// Sizes the per-node op workspaces (reused every step) and releases the
/// recorded impls' heap storage — non-scalar intermediates now live in the
/// arena, so their impls keep only the shape for dim()/ndim() callers.
/// Estimated scalar operations of one node's forward kernel (its backward
/// is the same order of magnitude). Only has to be right about which side
/// of kSerialWorkLimit a node lands on.
int64_t WorkEstimate(const Plan& p, const Node& n) {
  const std::vector<int>& ins = n.xinputs.empty() ? n.inputs : n.xinputs;
  switch (n.kind) {
    case OpKind::kMatMul:
    case OpKind::kFusedLinear: {
      const Node& a = p.nodes[ins[0]];
      return 2 * n.numel * a.shape[1];
    }
    case OpKind::kTextConvMaxPool: {
      // One [L, E] x [E, taps * C] GEMM per document.
      const Node& in = p.nodes[ins[0]];
      int64_t tap_columns = 0;
      for (size_t i = 1; i < ins.size(); i += 2) {
        tap_columns += p.nodes[ins[i]].shape[1] / in.shape[2] *
                       p.nodes[ins[i]].shape[0];
      }
      return 2 * in.shape[0] * in.shape[1] * in.shape[2] * tap_columns;
    }
    case OpKind::kSupConLoss: {
      const Node& f = p.nodes[ins[0]];
      int64_t rows = f.shape[0];
      return 2 * rows * rows * (f.shape[1] + 4);
    }
    default:
      return n.numel * 4;
  }
}

/// Below this much estimated work a pool dispatch costs more than the
/// parallelism returns (a dispatch is a few microseconds of wakeup and
/// join; kernels retire roughly one scalar op per nanosecond serially).
constexpr int64_t kSerialWorkLimit = 1 << 16;

/// Pre-schedules each live node's chunking: a node whose recorded work is
/// below kSerialWorkLimit replays inside a SerialRegion, turning every
/// ParallelFor its kernels issue into a single inline chunk. The eager
/// path cannot make this call — it learns shapes one op at a time — but
/// the plan knows every shape up front.
void PassChunkSchedule(Plan& p) {
  OM_TRACE_SPAN("graph.compile.chunks");
  for (int id : p.call_order) {
    Node& n = p.nodes[id];
    if (!n.live || n.kind == OpKind::kNop || !n.is_op) continue;
    n.serial = WorkEstimate(p, n) < kSerialWorkLimit;
  }
}

void PassFinalize(Plan& p) {
  OM_TRACE_SPAN("graph.compile.finalize");
  for (int id : p.call_order) {
    Node& n = p.nodes[id];
    if (!n.live) continue;
    switch (n.kind) {
      case OpKind::kDropout:
        n.ws0.assign(static_cast<size_t>(n.numel), 0.0f);
        break;
      case OpKind::kTextConvMaxPool:
        n.iws0.assign(static_cast<size_t>(n.numel), 0);
        break;
      case OpKind::kSoftmaxCrossEntropy: {
        const Node& ln = p.nodes[n.inputs[0]];
        size_t batch = static_cast<size_t>(ln.shape[0]);
        size_t classes = static_cast<size_t>(ln.shape[1]);
        n.ws0.assign(batch * classes, 0.0f);  // probs
        n.ws1.assign(batch, 0.0f);            // row_loss
        break;
      }
      case OpKind::kSupConLoss: {
        const Node& fn = p.nodes[n.inputs[0]];
        size_t batch = static_cast<size_t>(fn.shape[0]);
        size_t dim = static_cast<size_t>(fn.shape[1]);
        n.ws0.assign(batch * dim, 0.0f);    // norm_feats
        n.ws1.assign(batch, 0.0f);          // norms
        n.ws2.assign(batch * batch, 0.0f);  // sims
        n.ws3.assign(batch * batch, 0.0f);  // probs (diagonal stays 0)
        n.ws4.assign(batch, 0.0f);          // lse
        n.ws5.assign(batch * batch, 0.0f);  // gmat
        n.ws6.assign(batch * batch, 0.0f);  // sym
        n.ws7.assign(batch * dim, 0.0f);    // dnorm
        n.dws0.assign(batch, 0.0);          // anchor_loss
        n.iws1.assign(batch, 0);            // pos_count
        break;
      }
      default:
        break;
    }
  }
  for (int id : p.call_order) {
    Node& n = p.nodes[id];
    // The record step's Backward() already dropped the tape edges; clear
    // the rest so dead/fused impls hold no closures either.
    if (id != p.root) {
      n.impl->backward_fn = nullptr;
      n.impl->parents.clear();
    }
    if (n.numel == 1) continue;  // scalars stay impl-backed (ScalarValue)
    n.impl->data.clear();
    n.impl->data.shrink_to_fit();
    n.impl->grad.clear();
    n.impl->grad.shrink_to_fit();
  }
  Node& root = p.nodes[p.root];
  root.impl->parents.clear();
  Plan* plan = &p;
  root.impl->backward_fn = [plan]() { RunCompiledBackward(plan); };
  root.impl->graph_persistent = true;
}

/// Runs the pass pipeline. Returns nullptr on success or a reason string;
/// all failure returns happen before any impl is mutated, so a failed
/// compile leaves the eager state untouched.
const char* CompilePlan(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile");
  if (p.root < 0) return "no backward pass was recorded";
  if (p.nodes[p.root].numel != 1) return "backward root is not a scalar";
  if (p.call_order.empty()) return "empty step";
  PassDeadNodes(p, stats);
  PassFusion(p, stats);
  PassBackwardSchedule(p);
  PassArena(p, stats);
  PassChunkSchedule(p);
  PassFinalize(p);
  return nullptr;
}

}  // namespace

/// --- hooks ---------------------------------------------------------------

Session* ActiveRecording() {
  Session* s = tls_session;
  return (s != nullptr && s->recording && !s->aborted) ? s : nullptr;
}

Session* ActiveReplay() {
  Session* s = tls_session;
  return (s != nullptr && s->replaying) ? s : nullptr;
}

void AbortRecording(Session* session, const char* reason) {
  if (session == nullptr || !session->recording || session->aborted) return;
  session->aborted = true;
  session->abort_reason = reason;
}

void UnsupportedOp(const char* name) {
  OM_CHECK(ActiveReplay() == nullptr)
      << name << " has no graph lowering, so a recorded plan can never "
      << "contain it; reaching it mid-replay means the step diverged";
  AbortRecording(ActiveRecording(), name);
}

void NotifyBackwardRoot(TensorImpl* root) {
  Session* s = ActiveRecording();
  if (s == nullptr) return;
  auto it = s->node_of.find(root);
  if (it == s->node_of.end()) {
    AbortRecording(s, "backward root was not produced by a recorded op");
    return;
  }
  if (s->root_node >= 0 && s->root_node != it->second) {
    AbortRecording(s, "multiple backward roots in one step");
    return;
  }
  s->root_node = it->second;
}

void Record(Session* session, OpKind kind, const Tensor* const* inputs,
            int num_inputs, const Tensor& out, const OpArgs& args) {
  if (session == nullptr || !session->recording || session->aborted) return;
  Plan& p = *session->rec;
  if (p.call_order.size() >= kMaxRecordedCalls) {
    AbortRecording(session, "step too long to record");
    return;
  }
  Node n;
  n.call_kind = kind;
  n.kind = kind;
  n.is_op = true;
  for (int i = 0; i < num_inputs; ++i) {
    n.inputs.push_back(InternInput(session, *inputs[i]));
    n.in_req.push_back(inputs[i]->requires_grad() ? 1 : 0);
  }
  n.shape = out.shape();
  n.numel = static_cast<int64_t>(out.data().size());
  n.req_grad = out.requires_grad();
  n.impl = out.impl();
  n.f0 = args.f0;
  n.rng = args.rng;
  if (args.ints != nullptr) n.ints = *args.ints;
  if (args.shape != nullptr) n.shape_attr = *args.shape;
  n.fpos = static_cast<int>(p.call_order.size());
  int id = static_cast<int>(p.nodes.size());
  p.nodes.push_back(std::move(n));
  p.call_order.push_back(id);
  session->node_of[out.impl().get()] = id;
}

Tensor Replay(Session* session, OpKind kind, const Tensor* const* inputs,
              int num_inputs, const OpArgs& args) {
  OM_CHECK(session != nullptr && session->replaying);
  Plan& p = *session->plan;
  OM_CHECK(session->cursor < p.call_order.size())
      << "graph replay: more op calls than recorded (next: "
      << OpKindName(kind) << ")";
  int id = p.call_order[session->cursor];
  Node& n = p.nodes[id];
  OM_CHECK(n.call_kind == kind)
      << "graph replay: call " << session->cursor << " recorded "
      << OpKindName(n.call_kind) << ", got " << OpKindName(kind);
  OM_CHECK_EQ(static_cast<size_t>(num_inputs), n.inputs.size())
      << "graph replay: input count of " << OpKindName(kind);
  for (int i = 0; i < num_inputs; ++i) {
    const Node& in = p.nodes[n.inputs[i]];
    OM_CHECK(in.impl.get() == inputs[i]->impl().get())
        << "graph replay: input " << i << " of " << OpKindName(kind)
        << " at call " << session->cursor
        << " is not the recorded tensor";
    OM_CHECK_EQ(static_cast<int>(n.in_req[i]),
                inputs[i]->requires_grad() ? 1 : 0)
        << "graph replay: requires_grad changed on input " << i << " of "
        << OpKindName(kind);
  }
  OM_CHECK(n.rng == args.rng)
      << "graph replay: RNG stream changed for " << OpKindName(kind);
  if (args.shape != nullptr) {
    OM_CHECK(n.shape_attr == *args.shape)
        << "graph replay: reshape target changed";
  } else {
    OM_CHECK(n.shape_attr.empty());
  }
  // Dynamic attributes: new values each step, same cardinality.
  n.f0 = args.f0;
  if (args.ints != nullptr) {
    OM_CHECK_EQ(args.ints->size(), n.ints.size())
        << "graph replay: id/label count changed for " << OpKindName(kind)
        << " within one batch signature";
    std::copy(args.ints->begin(), args.ints->end(), n.ints.begin());
  } else {
    OM_CHECK(n.ints.empty());
  }
  ++session->cursor;
  if (n.live && n.kind != OpKind::kNop) {
    if (n.serial) {
      SerialRegion serial;
      ExecForward(p, id);
    } else {
      ExecForward(p, id);
    }
  }
  return Tensor(n.impl);
}

/// --- StepScope / GraphExecutor -------------------------------------------

GraphExecutor::GraphExecutor() = default;
GraphExecutor::~GraphExecutor() = default;

void GraphExecutor::ReleasePlans() {
  OM_CHECK(tls_session == nullptr || tls_session->exec != this)
      << "ReleasePlans inside a StepScope";
  plans_.clear();
}

StepScope::StepScope(GraphExecutor* executor, int64_t signature) {
  if (executor == nullptr) return;
  OM_CHECK(tls_session == nullptr) << "nested graph StepScopes";
  if (executor->eager_signatures_.count(signature) != 0) return;
  auto session = std::make_unique<Session>();
  session->exec = executor;
  session->signature = signature;
  auto it = executor->plans_.find(signature);
  if (it != executor->plans_.end()) {
    session->replaying = true;
    session->plan = it->second.get();
    executor->stats_.replay_steps += 1;
    ReplayStepsCounter()->Increment();
  } else {
    session->recording = true;
    session->rec = std::make_unique<Plan>();
    session->rec->signature = signature;
    executor->stats_.record_steps += 1;
    RecordStepsCounter()->Increment();
  }
  session_ = std::move(session);
  tls_session = session_.get();
}

StepScope::~StepScope() {
  if (session_ == nullptr) return;
  tls_session = nullptr;
  Session& s = *session_;
  GraphExecutor* executor = s.exec;
  if (s.replaying) {
    OM_CHECK_EQ(s.cursor, s.plan->call_order.size())
        << "graph replay: step ended after " << s.cursor << " of "
        << s.plan->call_order.size() << " recorded op calls";
    OM_CHECK(s.bwd_ran) << "graph replay: step ended without Backward()";
    return;
  }
  const char* error = s.aborted ? s.abort_reason.c_str() : nullptr;
  if (error == nullptr && s.root_node < 0) {
    error = "no backward pass was recorded";
  }
  if (error == nullptr) {
    s.rec->root = s.root_node;
    error = CompilePlan(*s.rec, &executor->stats_);
  }
  if (error != nullptr) {
    executor->eager_signatures_.insert(s.signature);
    executor->stats_.fallback_signatures += 1;
    OM_LOG(Info) << "graph: signature " << s.signature
                 << " stays eager: " << error;
    return;
  }
  executor->stats_.plans += 1;
  ArenaBytesGauge()->Set(
      static_cast<double>(executor->stats_.arena_bytes_max));
  executor->plans_.emplace(s.signature, std::move(s.rec));
}

bool StepScope::recording() const {
  return session_ != nullptr && session_->recording;
}

bool StepScope::replaying() const {
  return session_ != nullptr && session_->replaying;
}

}  // namespace graph
}  // namespace nn
}  // namespace omnimatch
