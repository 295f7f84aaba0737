#ifndef OMNIMATCH_NN_GRAPH_H_
#define OMNIMATCH_NN_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {
namespace graph {

/// Recorded-graph step execution (see DESIGN.md "Recorded-graph execution").
///
/// The training step of OmniMatch is structurally static for a fixed batch
/// size: every step issues the same op sequence with the same shapes, only
/// the leaf values (parameters), gather indices and labels change. The
/// define-by-run tape pays for that repetition every step — a TensorImpl, a
/// zero-filled data vector, a std::function backward closure and a
/// shared_ptr parent list per op.
///
/// This layer removes the repetition:
///  * a RECORDER observes one eager step (the op hooks in ops.cc/losses.cc
///    call Record() after each eager kernel) and captures it as an explicit
///    op-node IR — kinds, input edges, shapes, static attributes;
///  * a PASS PIPELINE compiles the IR: dead-node elimination, fusion of
///    matmul+bias(+ReLU) chains and gather+reshape pairs into single fused
///    kernels, an exact mirror of the eager backward schedule, and
///    liveness-based first-fit planning of every intermediate data/grad
///    buffer into ONE pre-sized arena;
///  * a REPLAY executor re-runs subsequent steps against the plan: the
///    model code still executes (it carries the dynamic ids/labels and the
///    control flow), but each op call is cursor-matched against the plan
///    and dispatched straight to its kernel on arena buffers — zero heap
///    allocations in steady state. The kernel is the eager op's own
///    (nn/op_kernels.h, nn/text_conv.h), so replay is bit-identical to
///    eager at every thread count by construction.
///
/// Fallback contract: recording is pure observation (the eager step is
/// untouched), so a step that hits an unsupported op simply marks its batch
/// signature as permanently eager. A batch-shape change starts a fresh
/// recording for the new signature. Mid-step structural divergence from the
/// recorded plan is a programming error and OM_CHECK-fatal.

enum class OpKind : uint8_t {
  kLeaf = 0,
  kAdd,
  kMul,
  kScale,
  kAddRowBroadcast,
  kRelu,
  kReshape,
  kDropout,
  kMatMul,
  kConcatCols,
  kConcatRows,
  kGather,
  kMeanAxis1,
  kGradReverse,
  kTextConvMaxPool,
  kSoftmaxCrossEntropy,
  kSupConLoss,
  // Synthesized by the fusion pass; never recorded directly.
  kFusedLinear,    // MatMul + AddRowBroadcast (+ Relu)
  kGatherReshape,  // Gather + Reshape into [B, L, E]
  // A fused-away chain member: matched against the call stream but not
  // executed (its work happens at the fusion tail's call site).
  kNop,
};

const char* OpKindName(OpKind kind);

/// One buffer's demand on the arena: a closed live interval on the unified
/// forward+backward step timeline plus a byte size. Exposed for the
/// arena-planning property tests.
struct ArenaRequest {
  int64_t start = 0;  // first step (inclusive) the buffer must exist
  int64_t end = 0;    // last step (inclusive)
  int64_t bytes = 0;
};

/// Arena offsets are aligned to this many bytes (one cache line).
constexpr int64_t kArenaAlign = 64;

/// First-fit-on-live-ranges arena planner: assigns each request a byte
/// offset such that no two requests with intersecting live intervals
/// overlap in [offset, offset + bytes). Offsets are kArenaAlign-aligned.
/// `*total_bytes` receives the arena size covering every placement.
std::vector<int64_t> FirstFitArena(const std::vector<ArenaRequest>& requests,
                                   int64_t* total_bytes);

struct Plan;    // internal IR + compiled schedule (graph.cc)
class Session;  // one step's record/replay state (graph.cc)

/// Per-signature plan cache plus counters. Owned by the trainer; one
/// executor per training run, whose plans are released when Train()
/// returns.
class GraphExecutor {
 public:
  GraphExecutor();
  ~GraphExecutor();
  GraphExecutor(const GraphExecutor&) = delete;
  GraphExecutor& operator=(const GraphExecutor&) = delete;

  struct Stats {
    int64_t plans = 0;           // distinct signatures compiled
    int64_t record_steps = 0;    // steps that ran eager + recorded
    int64_t replay_steps = 0;    // steps served from a compiled plan
    int64_t fallback_signatures = 0;  // signatures marked permanently eager
    int64_t fused_linear = 0;    // matmul+bias(+relu) chains fused
    int64_t fused_gather = 0;    // gather+reshape pairs fused
    int64_t dead_nodes = 0;      // nodes removed by DCE
    int64_t arena_bytes_max = 0;  // largest compiled arena
  };
  const Stats& stats() const { return stats_; }

  /// Frees every compiled plan and its arena; stats() and the signatures
  /// marked eager stay. The next step of a released signature records and
  /// compiles again. Must not run inside a StepScope.
  void ReleasePlans();

  /// Compiled plans currently held.
  size_t plan_count() const { return plans_.size(); }

 private:
  friend class StepScope;
  friend class Session;

  std::unordered_map<int64_t, std::unique_ptr<Plan>> plans_;
  std::unordered_set<int64_t> eager_signatures_;
  Stats stats_;
};

/// RAII scope around one training step's forward + losses + backward
/// region. With a null executor (graph execution disabled) it is a no-op.
/// Otherwise the first scope for a signature records and compiles; later
/// scopes replay. The destructor verifies a replayed step consumed the
/// whole plan (op calls and the backward pass).
class StepScope {
 public:
  /// `signature` keys the plan cache; callers pass whatever determines the
  /// step's shapes (for the trainer: the batch size).
  StepScope(GraphExecutor* executor, int64_t signature);
  ~StepScope();
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

  bool recording() const;
  bool replaying() const;

 private:
  std::unique_ptr<Session> session_;
};

/// --- hooks for ops.cc / losses.cc / tensor.cc ---------------------------

/// Static and dynamic attributes of one op call. Float attributes and int
/// lists are DYNAMIC: replay copies them into the node each call, so e.g.
/// gather ids and labels flow from the live batch. The RNG stream identity
/// and the reshape target are STATIC and verified.
struct OpArgs {
  float f0 = 0.0f;   // Scale s / Dropout p / GradReverse lambda / SupCon tau
  Rng* rng = nullptr;                        // Dropout stream
  const std::vector<int>* ints = nullptr;    // Gather ids / loss labels
  const std::vector<int>* shape = nullptr;   // Reshape target shape
};

/// Replay hook, called at the top of every recordable op. When the calling
/// thread is replaying a compiled plan, cursor-matches this call against it
/// (kind, inputs, static attrs), copies the dynamic attrs, runs the node's
/// kernel on the plan buffers, stores the node's persistent output tensor
/// in `*out` and returns true. Otherwise returns false and the op runs
/// eagerly.
bool Replay(OpKind kind, const Tensor* const* inputs, int num_inputs,
            const OpArgs& args, Tensor* out);

/// Record hook, called by every recordable op after its eager kernel: while
/// the calling thread is recording, appends one node for the call. Pure
/// observation: never touches tensor values or RNG streams.
void Record(OpKind kind, const Tensor* const* inputs, int num_inputs,
            const OpArgs& args, const Tensor& out);

/// Marks the current recording, if any, as failed (unsupported op or
/// degenerate path); the signature falls back to eager execution
/// permanently.
void AbortRecording(const char* reason);

/// Called at the top of ops with no graph lowering. While recording it
/// aborts the recording (the signature stays eager); during replay it is
/// fatal — a compiled plan can never contain such an op, so reaching one
/// means the step diverged from its recording.
void UnsupportedOp(const char* name);

/// Called by Tensor::Backward() so the recorder learns which node is the
/// backward root (the compiled backward schedule is installed as that
/// node's backward_fn). No-op outside a recording scope.
void NotifyBackwardRoot(TensorImpl* root);

}  // namespace graph
}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_GRAPH_H_
