#include "nn/graph.h"

#include <algorithm>
#include <climits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "nn/gemm.h"
#include "nn/op_kernels.h"
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
  Rng* rng = nullptr;
  std::vector<int> ints;        // Gather ids / loss labels
  std::vector<int> shape_attr;  // Reshape target shape

  // Arena placement in floats (-1: backed by impl storage — leaves and
  // scalars). scratch holds the FusedLinear relu-masked gradient.
  int64_t data_off = -1;
  int64_t grad_off = -1;
  int64_t scratch_off = -1;

  // The op kernel's workspace (only the one of this node's kind is used),
  // sized once at compile and reused every step.
  DropoutWorkspace dropout;
  CrossEntropyWorkspace cross_entropy;
  SupConWorkspace supcon;
  TextConvWorkspace conv;
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

/// Non-null while the current thread is inside a live recording StepScope.
Session* ActiveRecording() {
  Session* s = tls_session;
  return (s != nullptr && s->recording && !s->aborted) ? s : nullptr;
}

/// Non-null while the current thread is inside a replaying StepScope.
Session* ActiveReplay() {
  Session* s = tls_session;
  return (s != nullptr && s->replaying) ? s : nullptr;
}

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

/// The text-conv shape of node `n`, from its recorded input shapes.
TextConvShape ConvShape(const Plan& p, const Node& n) {
  const Node& in = p.nodes[n.inputs[0]];
  TextConvShape shape;
  shape.batch = in.shape[0];
  shape.length = in.shape[1];
  shape.embed = in.shape[2];
  shape.channels = p.nodes[n.inputs[1]].shape[0];
  shape.num_groups = static_cast<int>(n.inputs.size() - 1) / 2;
  return shape;
}

/// The text-conv kernel's filter bank for node `n` on the plan's buffers.
/// Its inputs are the embedded documents, then (weight, bias) per kernel
/// size; with `grads`, each group also gets the gradient buffers its inputs
/// want.
void ConvGroups(Plan& p, const Node& n, const TextConvShape& shape,
                bool grads, TextConvGroup* groups) {
  for (int g = 0; g < shape.num_groups; ++g) {
    const int w = n.inputs[1 + 2 * g];
    const int b = n.inputs[2 + 2 * g];
    groups[g] = TextConvGroup();
    groups[g].kernel_size = p.nodes[w].shape[1] / shape.embed;
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

/// The ids a Gather or GatherReshape node reads: its own, or those of the
/// fused-away Gather member.
const std::vector<int>& GatherIds(const Plan& p, const Node& n) {
  return n.kind == OpKind::kGatherReshape ? p.nodes[n.members[0]].ints
                                          : n.ints;
}

/// Runs one node's forward kernel on the plan's buffers: the same kernel
/// the eager op runs, on arena pointers.
void ExecForward(Plan& p, int id) {
  Node& n = p.nodes[id];
  float* out = NodeData(p, id);
  auto in = [&](int i) { return NodeData(p, n.inputs[i]); };
  auto in_shape = [&](int i) -> const std::vector<int>& {
    return p.nodes[n.inputs[i]].shape;
  };
  switch (n.kind) {
    case OpKind::kAdd:
      AddForward(in(0), in(1), out, n.numel);
      break;
    case OpKind::kMul:
      MulForward(in(0), in(1), out, n.numel);
      break;
    case OpKind::kScale:
      ScaleForward(in(0), n.f0, out, n.numel);
      break;
    case OpKind::kAddRowBroadcast:
      AddRowBroadcastForward(in(0), in(1), out, n.shape[0], n.shape[1]);
      break;
    case OpKind::kRelu:
      ReluForward(in(0), out, n.numel);
      break;
    case OpKind::kReshape:
    case OpKind::kGradReverse:
      CopyForward(in(0), out, n.numel);
      break;
    case OpKind::kDropout:
      DropoutForward(in(0), n.f0, n.rng, n.numel, &n.dropout, out);
      break;
    case OpKind::kMatMul:
      MatMulForward(in(0), in(1), out, in_shape(0)[0], in_shape(0)[1],
                    in_shape(1)[1]);
      break;
    case OpKind::kFusedLinear: {
      const Node& x = p.nodes[n.xinputs[0]];
      const Node& w = p.nodes[n.xinputs[1]];
      FusedLinearForward(NodeData(p, n.xinputs[0]), NodeData(p, n.xinputs[1]),
                         NodeData(p, n.xinputs[2]), out, x.shape[0],
                         x.shape[1], w.shape[1], n.fused_relu);
      break;
    }
    case OpKind::kConcatCols: {
      int col_offset = 0;
      for (int i = 0; i < static_cast<int>(n.inputs.size()); ++i) {
        const int cols = in_shape(i)[1];
        ConcatColsForward(in(i), n.shape[0], cols, n.shape[1], col_offset,
                          out);
        col_offset += cols;
      }
      break;
    }
    case OpKind::kConcatRows: {
      int64_t offset = 0;
      for (int pid : n.inputs) {
        CopyForward(NodeData(p, pid), out + offset, p.nodes[pid].numel);
        offset += p.nodes[pid].numel;
      }
      break;
    }
    case OpKind::kGather:
    case OpKind::kGatherReshape: {
      const int table = n.kind == OpKind::kGatherReshape ? n.xinputs[0]
                                                         : n.inputs[0];
      const std::vector<int>& ids = GatherIds(p, n);
      GatherForward(NodeData(p, table), p.nodes[table].shape[0],
                    p.nodes[table].shape[1], ids.data(),
                    static_cast<int64_t>(ids.size()), out);
      break;
    }
    case OpKind::kMeanAxis1:
      MeanAxis1Forward(in(0), in_shape(0)[0], in_shape(0)[1], in_shape(0)[2],
                       out);
      break;
    case OpKind::kTextConvMaxPool: {
      const TextConvShape shape = ConvShape(p, n);
      TextConvGroup groups[kMaxTextConvGroups];
      ConvGroups(p, n, shape, /*grads=*/false, groups);
      TextConvMaxPoolForward(in(0), shape, groups, out, &n.conv);
      break;
    }
    case OpKind::kSoftmaxCrossEntropy:
      out[0] = SoftmaxCrossEntropyForward(in(0), n.ints.data(),
                                          in_shape(0)[0], in_shape(0)[1],
                                          &n.cross_entropy);
      break;
    case OpKind::kSupConLoss:
      out[0] = SupConForward(in(0), n.ints.data(), in_shape(0)[0],
                             in_shape(0)[1], n.f0, &n.supcon);
      // The recorded step had positive pairs (degenerate batches abort the
      // recording), and the trainer duplicates the SCL label set, so every
      // replayed batch does too.
      OM_CHECK_GT(n.supcon.valid_anchors, 0)
          << "SupConLoss: replayed batch has no positive pairs";
      break;
    default:
      OM_CHECK(false) << "graph exec: no forward kernel for "
                      << OpKindName(n.kind);
  }
}

/// Runs one backward step: zero this step's first-touched grad buffers,
/// then the node's backward kernel — the one the eager closure runs.
void ExecBackwardStep(Plan& p, const Plan::BwdStep& step) {
  for (int gid : step.zero_grads) {
    Node& g = p.nodes[gid];
    float* buf = p.arena.data() + g.grad_off;
    std::fill(buf, buf + g.numel, 0.0f);
  }
  int id = step.node;
  Node& n = p.nodes[id];
  float* dout = NodeGrad(p, id);
  auto in = [&](int i) { return NodeData(p, n.inputs[i]); };
  auto in_shape = [&](int i) -> const std::vector<int>& {
    return p.nodes[n.inputs[i]].shape;
  };
  // The gradient buffer of input i, or null when it wants none.
  auto din = [&](int i) -> float* {
    return n.in_req[i] != 0 ? NodeGrad(p, n.inputs[i]) : nullptr;
  };
  switch (n.kind) {
    case OpKind::kAdd:
      for (int j = 0; j < 2; ++j) {
        if (float* g = din(j)) AccumulateGrad(dout, g, n.numel);
      }
      break;
    case OpKind::kMul: {
      float* da = din(0);
      float* db = din(1);
      MulBackward(in(0), in(1), dout, da, db, n.numel);
      break;
    }
    case OpKind::kScale:
      ScaleBackward(dout, n.f0, din(0), n.numel);
      break;
    case OpKind::kAddRowBroadcast: {
      float* dmat = din(0);
      float* drow = din(1);
      AddRowBroadcastBackward(dout, dmat, drow, n.shape[0], n.shape[1]);
      break;
    }
    case OpKind::kRelu:
      ReluBackward(in(0), dout, din(0), n.numel);
      break;
    case OpKind::kReshape:
      AccumulateGrad(dout, din(0), n.numel);
      break;
    case OpKind::kGradReverse:
      GradReverseBackward(dout, n.f0, din(0), n.numel);
      break;
    case OpKind::kDropout:
      DropoutBackward(dout, n.dropout, din(0), n.numel);
      break;
    case OpKind::kMatMul: {
      float* da = din(0);
      float* db = din(1);
      MatMulBackward(in(0), in(1), dout, da, db, in_shape(0)[0],
                     in_shape(0)[1], in_shape(1)[1]);
      break;
    }
    case OpKind::kFusedLinear: {
      const Node& x = p.nodes[n.xinputs[0]];
      const Node& w = p.nodes[n.xinputs[1]];
      const float* gsrc = dout;
      if (n.fused_relu) {
        // The fused chain elided the pre-activation tensor t; out > 0 iff
        // t > 0 (ReLU keeps positives as-is), so the Relu backward kernel
        // masks with the fused output in place of t.
        float* scratch = p.arena.data() + n.scratch_off;
        std::fill(scratch, scratch + n.numel, 0.0f);
        ReluBackward(NodeData(p, id), dout, scratch, n.numel);
        gsrc = scratch;
      }
      if (n.xin_req[2]) {
        AddRowBroadcastBackward(gsrc, nullptr, NodeGrad(p, n.xinputs[2]),
                                x.shape[0], w.shape[1]);
      }
      float* dx = n.xin_req[0] ? NodeGrad(p, n.xinputs[0]) : nullptr;
      float* dw = n.xin_req[1] ? NodeGrad(p, n.xinputs[1]) : nullptr;
      MatMulBackward(NodeData(p, n.xinputs[0]), NodeData(p, n.xinputs[1]),
                     gsrc, dx, dw, x.shape[0], x.shape[1], w.shape[1]);
      break;
    }
    case OpKind::kConcatCols: {
      int col_offset = 0;
      for (int i = 0; i < static_cast<int>(n.inputs.size()); ++i) {
        const int cols = in_shape(i)[1];
        if (float* dpart = din(i)) {
          ConcatColsBackward(dout, n.shape[0], cols, n.shape[1], col_offset,
                             dpart);
        }
        col_offset += cols;
      }
      break;
    }
    case OpKind::kConcatRows: {
      int64_t offset = 0;
      for (int i = 0; i < static_cast<int>(n.inputs.size()); ++i) {
        const int64_t count = p.nodes[n.inputs[i]].numel;
        if (float* dpart = din(i)) AccumulateGrad(dout + offset, dpart, count);
        offset += count;
      }
      break;
    }
    case OpKind::kGather:
    case OpKind::kGatherReshape: {
      const int table = n.kind == OpKind::kGatherReshape ? n.xinputs[0]
                                                         : n.inputs[0];
      const std::vector<int>& ids = GatherIds(p, n);
      GatherBackward(dout, ids.data(), static_cast<int64_t>(ids.size()),
                     p.nodes[table].shape[0], p.nodes[table].shape[1],
                     NodeGrad(p, table));
      break;
    }
    case OpKind::kMeanAxis1:
      MeanAxis1Backward(dout, in_shape(0)[0], in_shape(0)[1], in_shape(0)[2],
                        din(0));
      break;
    case OpKind::kTextConvMaxPool: {
      const TextConvShape shape = ConvShape(p, n);
      TextConvGroup groups[kMaxTextConvGroups];
      ConvGroups(p, n, shape, /*grads=*/true, groups);
      TextConvMaxPoolBackward(in(0), shape, groups, NodeData(p, id), dout,
                              n.conv, din(0));
      break;
    }
    case OpKind::kSoftmaxCrossEntropy:
      SoftmaxCrossEntropyBackward(n.cross_entropy, n.ints.data(),
                                  in_shape(0)[0], in_shape(0)[1], dout[0],
                                  din(0));
      break;
    case OpKind::kSupConLoss:
      SupConBackward(n.ints.data(), in_shape(0)[0], in_shape(0)[1], n.f0,
                     dout[0], &n.supcon, din(0));
      break;
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
  // step only). Op kernels keep theirs in the node's workspace.
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
/// parallel loop its kernels issue into a single inline chunk. The eager
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

/// Sizes each node's kernel workspace (reused every step) and releases the
/// recorded impls' heap storage — non-scalar intermediates now live in the
/// arena, so their impls keep only the shape for dim()/ndim() callers.
void PassFinalize(Plan& p) {
  OM_TRACE_SPAN("graph.compile.finalize");
  for (int id : p.call_order) {
    Node& n = p.nodes[id];
    if (!n.live) continue;
    const std::vector<int>& in = p.nodes[n.inputs[0]].shape;
    switch (n.kind) {
      case OpKind::kDropout:
        n.dropout.Size(n.numel);
        break;
      case OpKind::kTextConvMaxPool:
        n.conv.Size(ConvShape(p, n));
        break;
      case OpKind::kSoftmaxCrossEntropy:
        n.cross_entropy.Size(in[0], in[1]);
        break;
      case OpKind::kSupConLoss:
        n.supcon.Size(in[0], in[1]);
        break;
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

void AbortRecording(const char* reason) {
  Session* s = ActiveRecording();
  if (s == nullptr) return;
  s->aborted = true;
  s->abort_reason = reason;
}

void UnsupportedOp(const char* name) {
  OM_CHECK(ActiveReplay() == nullptr)
      << name << " has no graph lowering, so a recorded plan can never "
      << "contain it; reaching it mid-replay means the step diverged";
  AbortRecording(name);
}

void NotifyBackwardRoot(TensorImpl* root) {
  Session* s = ActiveRecording();
  if (s == nullptr) return;
  auto it = s->node_of.find(root);
  if (it == s->node_of.end()) {
    AbortRecording("backward root was not produced by a recorded op");
    return;
  }
  if (s->root_node >= 0 && s->root_node != it->second) {
    AbortRecording("multiple backward roots in one step");
    return;
  }
  s->root_node = it->second;
}

void Record(OpKind kind, const Tensor* const* inputs, int num_inputs,
            const OpArgs& args, const Tensor& out) {
  Session* session = ActiveRecording();
  if (session == nullptr) return;
  Plan& p = *session->rec;
  if (p.call_order.size() >= kMaxRecordedCalls) {
    AbortRecording("step too long to record");
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

bool Replay(OpKind kind, const Tensor* const* inputs, int num_inputs,
            const OpArgs& args, Tensor* out) {
  Session* session = ActiveReplay();
  if (session == nullptr) return false;
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
  *out = Tensor(n.impl);
  return true;
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
