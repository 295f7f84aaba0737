#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/threadpool.h"
#include "nn/elemwise.h"
#include "nn/gemm.h"
#include "nn/graph.h"
#include "nn/op_kernels.h"
#include "nn/text_conv.h"
#include "obs/metrics.h"

namespace omnimatch {
namespace nn {

namespace {

using Impl = std::shared_ptr<TensorImpl>;

/// Tape nodes allocated by eager ops and losses. Replayed graph steps
/// allocate none: the ratio of this counter to steps is the zero-alloc
/// evidence that GraphTrainerTest.ReplayedStepsAllocateNoTensorNodes pins.
obs::Counter* NodeAllocCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("nn.tensor_node_allocs");
  return counter;
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  OM_CHECK(a.shape() == b.shape())
      << op << ": " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

/// A concat hands its parts to the graph hooks in a stack array, so replay
/// performs no heap allocation. A wider concat has no graph lowering:
/// recording one aborts the recording, and reaching one mid-replay is fatal.
constexpr size_t kMaxConcatParts = 16;

bool ConcatHookInputs(const std::vector<Tensor>& parts,
                      const Tensor** inputs) {
  if (parts.size() > kMaxConcatParts) {
    graph::UnsupportedOp("a concat of more than 16 parts");
    return false;
  }
  for (size_t i = 0; i < parts.size(); ++i) inputs[i] = &parts[i];
  return true;
}

}  // namespace

Tensor MakeOutput(std::vector<int> shape, std::vector<Impl> parents) {
  NodeAllocCounter()->Increment();
  auto out = std::make_shared<TensorImpl>();
  out->shape = std::move(shape);
  out->data.assign(static_cast<size_t>(ShapeNumel(out->shape)), 0.0f);
  bool needs_grad = false;
  for (const Impl& p : parents) needs_grad = needs_grad || p->requires_grad;
  out->requires_grad = needs_grad;
  if (needs_grad) out->parents = std::move(parents);
  return Tensor(std::move(out));
}

float* GradOf(TensorImpl* t) {
  if (!t->requires_grad) return nullptr;
  t->EnsureGrad();
  return t->grad.data();
}

// Every recordable op below starts with graph::Replay, which serves the
// call from a compiled plan when one is replaying (running the same kernel
// on arena buffers), and ends with graph::Record, which appends the call to
// a recording. Replay runs before the op's own shape checks: replayed
// intermediates keep their shapes but not their data, so checks on values
// live in the kernels, which both paths run.

void AddForward(const float* a, const float* b, float* out, int64_t n) {
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = a[i] + b[i];
  });
}

void AccumulateGrad(const float* dout, float* dx, int64_t n) {
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dx[i] += dout[i];
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  const Tensor* in[] = {&a, &b};
  if (Tensor r; graph::Replay(graph::OpKind::kAdd, in, 2, {}, &r)) return r;
  CheckSameShape(a, b, "Add");
  Tensor out = MakeOutput(a.shape(), {a.impl(), b.impl()});
  AddForward(a.data().data(), b.data().data(), out.data().data(),
             out.numel());
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o]() {
      const float* dout = GradOf(o);
      const int64_t n = static_cast<int64_t>(o->data.size());
      if (float* da = GradOf(ai.get())) AccumulateGrad(dout, da, n);
      if (float* db = GradOf(bi.get())) AccumulateGrad(dout, db, n);
    };
  }
  graph::Record(graph::OpKind::kAdd, in, 2, {}, out);
  return out;
}

void MulForward(const float* a, const float* b, float* out, int64_t n) {
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = a[i] * b[i];
  });
}

void MulBackward(const float* a, const float* b, const float* dout, float* da,
                 float* db, int64_t n) {
  if (da != nullptr) {
    ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) da[i] += dout[i] * b[i];
    });
  }
  if (db != nullptr) {
    ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) db[i] += dout[i] * a[i];
    });
  }
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const Tensor* in[] = {&a, &b};
  if (Tensor r; graph::Replay(graph::OpKind::kMul, in, 2, {}, &r)) return r;
  CheckSameShape(a, b, "Mul");
  Tensor out = MakeOutput(a.shape(), {a.impl(), b.impl()});
  MulForward(a.data().data(), b.data().data(), out.data().data(),
             out.numel());
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o]() {
      const float* dout = GradOf(o);
      float* da = GradOf(ai.get());
      float* db = GradOf(bi.get());
      MulBackward(ai->data.data(), bi->data.data(), dout, da, db,
                  static_cast<int64_t>(o->data.size()));
    };
  }
  graph::Record(graph::OpKind::kMul, in, 2, {}, out);
  return out;
}

void ScaleForward(const float* a, float s, float* out, int64_t n) {
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = a[i] * s;
  });
}

void ScaleBackward(const float* dout, float s, float* da, int64_t n) {
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) da[i] += s * dout[i];
  });
}

Tensor Scale(const Tensor& a, float s) {
  graph::OpArgs args;
  args.f0 = s;
  const Tensor* in = &a;
  if (Tensor r; graph::Replay(graph::OpKind::kScale, &in, 1, args, &r)) {
    return r;
  }
  Tensor out = MakeOutput(a.shape(), {a.impl()});
  ScaleForward(a.data().data(), s, out.data().data(), out.numel());
  if (out.requires_grad()) {
    Impl ai = a.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, o, s]() {
      const float* dout = GradOf(o);
      ScaleBackward(dout, s, GradOf(ai.get()),
                    static_cast<int64_t>(o->data.size()));
    };
  }
  graph::Record(graph::OpKind::kScale, &in, 1, args, out);
  return out;
}

void AddRowBroadcastForward(const float* mat, const float* row, float* out,
                            int rows, int cols) {
  ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const float* src = mat + static_cast<size_t>(r) * cols;
                  float* dst = out + static_cast<size_t>(r) * cols;
                  for (int c = 0; c < cols; ++c) dst[c] = src[c] + row[c];
                }
              });
}

void AddRowBroadcastBackward(const float* dout, float* dmat, float* drow,
                             int rows, int cols) {
  if (dmat != nullptr) {
    AccumulateGrad(dout, dmat, static_cast<int64_t>(rows) * cols);
  }
  if (drow != nullptr) {
    // Column reduction: each column owned by one chunk, rows walked in
    // ascending order — deterministic for any thread count.
    ParallelFor(0, cols, std::max<int64_t>(1, kElemGrain / rows),
                [&](int64_t c0, int64_t c1) {
                  for (int r = 0; r < rows; ++r) {
                    const float* grow = dout + static_cast<size_t>(r) * cols;
                    for (int64_t c = c0; c < c1; ++c) drow[c] += grow[c];
                  }
                });
  }
}

Tensor AddRowBroadcast(const Tensor& mat, const Tensor& row) {
  const Tensor* in[] = {&mat, &row};
  if (Tensor r; graph::Replay(graph::OpKind::kAddRowBroadcast, in, 2, {}, &r)) {
    return r;
  }
  OM_CHECK_EQ(mat.ndim(), 2);
  int rows = mat.dim(0);
  int cols = mat.dim(1);
  OM_CHECK_EQ(static_cast<int>(row.numel()), cols)
      << "bias length must equal column count";
  Tensor out = MakeOutput(mat.shape(), {mat.impl(), row.impl()});
  AddRowBroadcastForward(mat.data().data(), row.data().data(),
                         out.data().data(), rows, cols);
  if (out.requires_grad()) {
    Impl mi = mat.impl(), ri = row.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [mi, ri, o, rows, cols]() {
      const float* dout = GradOf(o);
      float* dmat = GradOf(mi.get());
      float* drow = GradOf(ri.get());
      AddRowBroadcastBackward(dout, dmat, drow, rows, cols);
    };
  }
  graph::Record(graph::OpKind::kAddRowBroadcast, in, 2, {}, out);
  return out;
}

void ReluForward(const float* x, float* out, int64_t n) {
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  });
}

void ReluBackward(const float* x, const float* dout, float* dx, int64_t n) {
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (x[i] > 0.0f) dx[i] += dout[i];
    }
  });
}

Tensor Relu(const Tensor& x) {
  const Tensor* in = &x;
  if (Tensor r; graph::Replay(graph::OpKind::kRelu, &in, 1, {}, &r)) return r;
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  ReluForward(x.data().data(), out.data().data(), out.numel());
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      const float* dout = GradOf(o);
      ReluBackward(xi->data.data(), dout, GradOf(xi.get()),
                   static_cast<int64_t>(o->data.size()));
    };
  }
  graph::Record(graph::OpKind::kRelu, &in, 1, {}, out);
  return out;
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  graph::UnsupportedOp("LeakyRelu");
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ov[i] = xv[i] > 0.0f ? xv[i] : slope * xv[i];
    }
  });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, slope]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          xi->grad[i] += o->grad[i] * (xi->data[i] > 0.0f ? 1.0f : slope);
        }
      });
    };
  }
  return out;
}

void CopyForward(const float* x, float* out, int64_t n) {
  std::copy(x, x + n, out);
}

Tensor Reshape(const Tensor& x, std::vector<int> new_shape) {
  graph::OpArgs args;
  args.shape = &new_shape;
  const Tensor* in = &x;
  if (Tensor r; graph::Replay(graph::OpKind::kReshape, &in, 1, args, &r)) {
    return r;
  }
  OM_CHECK_EQ(ShapeNumel(new_shape), x.numel())
      << ShapeToString(x.shape()) << " -> " << ShapeToString(new_shape);
  Tensor out = MakeOutput(std::move(new_shape), {x.impl()});
  CopyForward(x.data().data(), out.data().data(), out.numel());
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      const float* dout = GradOf(o);
      AccumulateGrad(dout, GradOf(xi.get()),
                     static_cast<int64_t>(o->data.size()));
    };
  }
  args.shape = &out.shape();  // new_shape was moved into the output
  graph::Record(graph::OpKind::kReshape, &in, 1, args, out);
  return out;
}

void DropoutWorkspace::Size(int64_t n) { mask.resize(static_cast<size_t>(n)); }

void DropoutForward(const float* x, float p, Rng* rng, int64_t n,
                    DropoutWorkspace* ws, float* out) {
  ws->Size(n);
  float* mask = ws->mask.data();
  const float keep_scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
    out[i] = x[i] * mask[i];
  }
}

void DropoutBackward(const float* dout, const DropoutWorkspace& ws, float* dx,
                     int64_t n) {
  const float* mask = ws.mask.data();
  ParallelElems(static_cast<size_t>(n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dx[i] += dout[i] * mask[i];
  });
}

Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng) {
  OM_CHECK(p >= 0.0f && p < 1.0f) << "dropout p=" << p;
  if (!training || p == 0.0f) return x;
  OM_CHECK(rng != nullptr);
  // Hooks after the early return: an identity Dropout issues no op call, in
  // recording and replay alike.
  graph::OpArgs args;
  args.f0 = p;
  args.rng = rng;
  const Tensor* in = &x;
  if (Tensor r; graph::Replay(graph::OpKind::kDropout, &in, 1, args, &r)) {
    return r;
  }
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  auto ws = std::make_shared<DropoutWorkspace>();
  DropoutForward(x.data().data(), p, rng, out.numel(), ws.get(),
                 out.data().data());
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, ws]() {
      const float* dout = GradOf(o);
      DropoutBackward(dout, *ws, GradOf(xi.get()),
                      static_cast<int64_t>(o->data.size()));
    };
  }
  graph::Record(graph::OpKind::kDropout, &in, 1, args, out);
  return out;
}

void MatMulForward(const float* a, const float* b, float* out, int m, int k,
                   int n) {
  std::fill(out, out + static_cast<size_t>(m) * n, 0.0f);
  GemmNN(a, b, out, m, k, n);
}

void MatMulBackward(const float* a, const float* b, const float* dout,
                    float* da, float* db, int m, int k, int n) {
  // dA[M,K] += dOut[M,N] * B[K,N]^T
  if (da != nullptr) GemmNT(dout, b, da, m, n, k);
  // dB[K,N] += A[M,K]^T * dOut[M,N]
  if (db != nullptr) GemmTN(a, dout, db, k, m, n);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const Tensor* in[] = {&a, &b};
  if (Tensor r; graph::Replay(graph::OpKind::kMatMul, in, 2, {}, &r)) {
    return r;
  }
  OM_CHECK_EQ(a.ndim(), 2);
  OM_CHECK_EQ(b.ndim(), 2);
  int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OM_CHECK_EQ(k, b.dim(0)) << "MatMul inner dims";
  Tensor out = MakeOutput({m, n}, {a.impl(), b.impl()});
  MatMulForward(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o, m, k, n]() {
      const float* dout = GradOf(o);
      float* da = GradOf(ai.get());
      float* db = GradOf(bi.get());
      MatMulBackward(ai->data.data(), bi->data.data(), dout, da, db, m, k, n);
    };
  }
  graph::Record(graph::OpKind::kMatMul, in, 2, {}, out);
  return out;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  graph::UnsupportedOp("MatMulNT");
  OM_CHECK_EQ(a.ndim(), 2);
  OM_CHECK_EQ(b.ndim(), 2);
  int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  OM_CHECK_EQ(k, b.dim(1)) << "MatMulNT inner dims";
  Tensor out = MakeOutput({m, n}, {a.impl(), b.impl()});
  GemmNT(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o, m, k, n]() {
      o->EnsureGrad();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dA[M,K] += dOut[M,N] * B[N,K]
        GemmNN(o->grad.data(), bi->data.data(), ai->grad.data(), m, n, k);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // dB[N,K] += dOut[M,N]^T * A[M,K]
        GemmTN(o->grad.data(), ai->data.data(), bi->grad.data(), n, m, k);
      }
    };
  }
  return out;
}

void ConcatColsForward(const float* part, int rows, int cols, int total_cols,
                       int col_offset, float* out) {
  for (int r = 0; r < rows; ++r) {
    std::copy(part + static_cast<size_t>(r) * cols,
              part + static_cast<size_t>(r + 1) * cols,
              out + static_cast<size_t>(r) * total_cols + col_offset);
  }
}

void ConcatColsBackward(const float* dout, int rows, int cols, int total_cols,
                        int col_offset, float* dpart) {
  for (int r = 0; r < rows; ++r) {
    const float* src = dout + static_cast<size_t>(r) * total_cols + col_offset;
    float* dst = dpart + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] += src[c];
  }
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  OM_CHECK(!parts.empty());
  const Tensor* in[kMaxConcatParts];
  const bool hooked = ConcatHookInputs(parts, in);
  const int num_in = static_cast<int>(parts.size());
  if (Tensor r; hooked && graph::Replay(graph::OpKind::kConcatCols, in,
                                        num_in, {}, &r)) {
    return r;
  }
  int rows = parts[0].dim(0);
  int total_cols = 0;
  std::vector<Impl> parents;
  for (const Tensor& p : parts) {
    OM_CHECK_EQ(p.ndim(), 2);
    OM_CHECK_EQ(p.dim(0), rows) << "ConcatCols row mismatch";
    total_cols += p.dim(1);
    parents.push_back(p.impl());
  }
  Tensor out = MakeOutput({rows, total_cols}, parents);
  int col_offset = 0;
  for (const Tensor& p : parts) {
    ConcatColsForward(p.data().data(), rows, p.dim(1), total_cols, col_offset,
                      out.data().data());
    col_offset += p.dim(1);
  }
  if (out.requires_grad()) {
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [parents, o, rows, total_cols]() {
      const float* dout = GradOf(o);
      int offset = 0;
      for (const Impl& pi : parents) {
        const int cols = pi->shape[1];
        if (float* dpart = GradOf(pi.get())) {
          ConcatColsBackward(dout, rows, cols, total_cols, offset, dpart);
        }
        offset += cols;
      }
    };
  }
  if (hooked) graph::Record(graph::OpKind::kConcatCols, in, num_in, {}, out);
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  OM_CHECK(!parts.empty());
  const Tensor* in[kMaxConcatParts];
  const bool hooked = ConcatHookInputs(parts, in);
  const int num_in = static_cast<int>(parts.size());
  if (Tensor r; hooked && graph::Replay(graph::OpKind::kConcatRows, in,
                                        num_in, {}, &r)) {
    return r;
  }
  int cols = parts[0].dim(1);
  int total_rows = 0;
  std::vector<Impl> parents;
  for (const Tensor& p : parts) {
    OM_CHECK_EQ(p.ndim(), 2);
    OM_CHECK_EQ(p.dim(1), cols) << "ConcatRows column mismatch";
    total_rows += p.dim(0);
    parents.push_back(p.impl());
  }
  Tensor out = MakeOutput({total_rows, cols}, parents);
  size_t offset = 0;
  for (const Tensor& p : parts) {
    CopyForward(p.data().data(), out.data().data() + offset, p.numel());
    offset += p.data().size();
  }
  if (out.requires_grad()) {
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [parents, o]() {
      const float* dout = GradOf(o);
      size_t off = 0;
      for (const Impl& pi : parents) {
        const size_t n = pi->data.size();
        if (float* dpart = GradOf(pi.get())) {
          AccumulateGrad(dout + off, dpart, static_cast<int64_t>(n));
        }
        off += n;
      }
    };
  }
  if (hooked) graph::Record(graph::OpKind::kConcatRows, in, num_in, {}, out);
  return out;
}

void GatherForward(const float* table, int vocab, int width, const int* ids,
                   int64_t num_ids, float* out) {
  for (int64_t r = 0; r < num_ids; ++r) {
    OM_CHECK(ids[r] >= 0 && ids[r] < vocab)
        << "Gather id " << ids[r] << " of " << vocab;
  }
  ParallelFor(0, num_ids, std::max<int64_t>(1, kElemGrain / width),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  std::copy(table + static_cast<size_t>(ids[r]) * width,
                            table + static_cast<size_t>(ids[r] + 1) * width,
                            out + static_cast<size_t>(r) * width);
                }
              });
}

void GatherBackward(const float* dout, const int* ids, int64_t num_ids,
                    int vocab, int width, float* dtable) {
  // Scatter-add sharded by destination row: a chunk owns the table rows in
  // [lo, hi) and walks the id list in order, accumulating only the ids it
  // owns. Every table row is updated by exactly one chunk with a fixed
  // accumulation order, so the result is race-free and bit-identical for
  // any thread count. Each chunk rescans the id list, which is cheap next
  // to the touched gradient rows; the scan also keeps the naturally sparse
  // structure (only referenced rows are written) without a sort or
  // per-thread buffers.
  const int64_t work = num_ids * width;
  const int64_t shard_rows =
      work < kElemGrain
          ? vocab  // single shard: plain serial scatter
          : std::max<int64_t>(64, vocab / (GetNumThreads() * 4));
  ParallelFor(0, vocab, shard_rows, [&](int64_t lo, int64_t hi) {
    for (int64_t r = 0; r < num_ids; ++r) {
      const int id = ids[r];
      if (id < lo || id >= hi) continue;
      float* dst = dtable + static_cast<size_t>(id) * width;
      const float* src = dout + static_cast<size_t>(r) * width;
      for (int c = 0; c < width; ++c) dst[c] += src[c];
    }
  });
}

Tensor Gather(const Tensor& table, const std::vector<int>& ids) {
  graph::OpArgs args;
  args.ints = &ids;
  const Tensor* in = &table;
  if (Tensor r; graph::Replay(graph::OpKind::kGather, &in, 1, args, &r)) {
    return r;
  }
  OM_CHECK_EQ(table.ndim(), 2);
  int vocab = table.dim(0);
  int width = table.dim(1);
  OM_CHECK(!ids.empty());
  const int64_t num_ids = static_cast<int64_t>(ids.size());
  Tensor out =
      MakeOutput({static_cast<int>(ids.size()), width}, {table.impl()});
  GatherForward(table.data().data(), vocab, width, ids.data(), num_ids,
                out.data().data());
  if (out.requires_grad()) {
    Impl ti = table.impl();
    TensorImpl* o = out.impl().get();
    auto ids_copy = std::make_shared<std::vector<int>>(ids);
    out.impl()->backward_fn = [ti, o, ids_copy, vocab, width]() {
      const float* dout = GradOf(o);
      GatherBackward(dout, ids_copy->data(),
                     static_cast<int64_t>(ids_copy->size()), vocab, width,
                     GradOf(ti.get()));
    };
  }
  graph::Record(graph::OpKind::kGather, &in, 1, args, out);
  return out;
}

Tensor MeanRows(const Tensor& x) {
  graph::UnsupportedOp("MeanRows");
  OM_CHECK_EQ(x.ndim(), 2);
  int rows = x.dim(0);
  int cols = x.dim(1);
  Tensor out = MakeOutput({1, cols}, {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      ov[c] += xv[static_cast<size_t>(r) * cols + c];
    }
  }
  float inv = 1.0f / static_cast<float>(rows);
  for (int c = 0; c < cols; ++c) ov[c] *= inv;
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, rows, cols, inv]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          xi->grad[static_cast<size_t>(r) * cols + c] += inv * o->grad[c];
        }
      }
    };
  }
  return out;
}

Tensor RowSum(const Tensor& x) {
  graph::UnsupportedOp("RowSum");
  OM_CHECK_EQ(x.ndim(), 2);
  int rows = x.dim(0);
  int cols = x.dim(1);
  Tensor out = MakeOutput({rows, 1}, {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  for (int r = 0; r < rows; ++r) {
    float acc = 0.0f;
    const float* row = xv.data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) acc += row[c];
    ov[static_cast<size_t>(r)] = acc;
  }
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, rows, cols]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      for (int r = 0; r < rows; ++r) {
        float g = o->grad[static_cast<size_t>(r)];
        float* row = xi->grad.data() + static_cast<size_t>(r) * cols;
        for (int c = 0; c < cols; ++c) row[c] += g;
      }
    };
  }
  return out;
}

void MeanAxis1Forward(const float* x, int batch, int length, int width,
                      float* out) {
  const float inv = 1.0f / static_cast<float>(length);
  const int64_t per_doc = static_cast<int64_t>(length) * width;
  ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  float* orow = out + static_cast<size_t>(b) * width;
                  std::fill(orow, orow + width, 0.0f);
                  for (int l = 0; l < length; ++l) {
                    const float* row =
                        x + (static_cast<size_t>(b) * length + l) * width;
                    for (int e = 0; e < width; ++e) orow[e] += row[e];
                  }
                  for (int e = 0; e < width; ++e) orow[e] *= inv;
                }
              });
}

void MeanAxis1Backward(const float* dout, int batch, int length, int width,
                       float* dx) {
  const float inv = 1.0f / static_cast<float>(length);
  const int64_t per_doc = static_cast<int64_t>(length) * width;
  ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  const float* grow = dout + static_cast<size_t>(b) * width;
                  for (int l = 0; l < length; ++l) {
                    float* row =
                        dx + (static_cast<size_t>(b) * length + l) * width;
                    for (int e = 0; e < width; ++e) row[e] += inv * grow[e];
                  }
                }
              });
}

Tensor MeanAxis1(const Tensor& x) {
  const Tensor* in = &x;
  if (Tensor r; graph::Replay(graph::OpKind::kMeanAxis1, &in, 1, {}, &r)) {
    return r;
  }
  OM_CHECK_EQ(x.ndim(), 3);
  int batch = x.dim(0);
  int length = x.dim(1);
  int width = x.dim(2);
  Tensor out = MakeOutput({batch, width}, {x.impl()});
  MeanAxis1Forward(x.data().data(), batch, length, width, out.data().data());
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, batch, length, width]() {
      const float* dout = GradOf(o);
      MeanAxis1Backward(dout, batch, length, width, GradOf(xi.get()));
    };
  }
  graph::Record(graph::OpKind::kMeanAxis1, &in, 1, {}, out);
  return out;
}

Tensor Softmax(const Tensor& x) {
  graph::UnsupportedOp("Softmax");
  OM_CHECK_EQ(x.ndim(), 2);
  int rows = x.dim(0);
  int cols = x.dim(1);
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const float* xr = xv.data() + static_cast<size_t>(r) * cols;
                  float* orow = ov.data() + static_cast<size_t>(r) * cols;
                  float max_v = xr[0];
                  for (int c = 1; c < cols; ++c) {
                    max_v = std::max(max_v, xr[c]);
                  }
                  float sum = 0.0f;
                  for (int c = 0; c < cols; ++c) {
                    orow[c] = std::exp(xr[c] - max_v);
                    sum += orow[c];
                  }
                  float inv = 1.0f / sum;
                  for (int c = 0; c < cols; ++c) orow[c] *= inv;
                }
              });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, rows, cols]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
                  [&](int64_t r0, int64_t r1) {
                    for (int64_t r = r0; r < r1; ++r) {
                      const float* y =
                          o->data.data() + static_cast<size_t>(r) * cols;
                      const float* dy =
                          o->grad.data() + static_cast<size_t>(r) * cols;
                      float* dx =
                          xi->grad.data() + static_cast<size_t>(r) * cols;
                      float dot = 0.0f;
                      for (int c = 0; c < cols; ++c) dot += y[c] * dy[c];
                      for (int c = 0; c < cols; ++c) {
                        dx[c] += y[c] * (dy[c] - dot);
                      }
                    }
                  });
    };
  }
  return out;
}

Tensor SumAll(const Tensor& x) {
  graph::UnsupportedOp("SumAll");
  Tensor out = MakeOutput({1}, {x.impl()});
  const auto& xv = x.data();
  // Serial double accumulation: the canonical fixed-order reduction.
  double acc = 0.0;
  for (float v : xv) acc += v;
  out.data()[0] = static_cast<float>(acc);
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      float g = o->grad[0];
      for (float& v : xi->grad) v += g;
    };
  }
  return out;
}

Tensor MeanAll(const Tensor& x) {
  float inv = 1.0f / static_cast<float>(x.numel());
  return Scale(SumAll(x), inv);
}

void GradReverseBackward(const float* dout, float lambda, float* dx,
                         int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] -= lambda * dout[i];
}

Tensor GradReverse(const Tensor& x, float lambda) {
  graph::OpArgs args;
  args.f0 = lambda;
  const Tensor* in = &x;
  if (Tensor r; graph::Replay(graph::OpKind::kGradReverse, &in, 1, args, &r)) {
    return r;
  }
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  CopyForward(x.data().data(), out.data().data(), out.numel());
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, lambda]() {
      const float* dout = GradOf(o);
      GradReverseBackward(dout, lambda, GradOf(xi.get()),
                          static_cast<int64_t>(o->data.size()));
    };
  }
  graph::Record(graph::OpKind::kGradReverse, &in, 1, args, out);
  return out;
}

Tensor TextConvMaxPool(const Tensor& input, const std::vector<Tensor>& weights,
                       const std::vector<Tensor>& biases) {
  OM_CHECK(!weights.empty());
  OM_CHECK_EQ(weights.size(), biases.size());
  OM_CHECK_LE(weights.size(), static_cast<size_t>(kMaxTextConvGroups))
      << "filter bank too large";
  // Inputs in graph order: input, then (weight, bias) per group. A stack
  // array keeps the replay path free of heap allocations.
  const Tensor* inputs[1 + 2 * kMaxTextConvGroups];
  int num_inputs = 0;
  inputs[num_inputs++] = &input;
  for (size_t g = 0; g < weights.size(); ++g) {
    inputs[num_inputs++] = &weights[g];
    inputs[num_inputs++] = &biases[g];
  }
  if (Tensor r; graph::Replay(graph::OpKind::kTextConvMaxPool, inputs,
                              num_inputs, {}, &r)) {
    return r;
  }
  OM_CHECK_EQ(input.ndim(), 3);
  TextConvShape shape;
  shape.batch = input.dim(0);
  shape.length = input.dim(1);
  shape.embed = input.dim(2);
  shape.channels = weights[0].dim(0);
  shape.num_groups = static_cast<int>(weights.size());
  TextConvGroup groups[kMaxTextConvGroups];
  std::vector<Impl> parents = {input.impl()};
  for (int g = 0; g < shape.num_groups; ++g) {
    const Tensor& w = weights[static_cast<size_t>(g)];
    const Tensor& b = biases[static_cast<size_t>(g)];
    OM_CHECK_EQ(w.ndim(), 2);
    OM_CHECK_EQ(w.dim(0), shape.channels) << "filter bank channel mismatch";
    OM_CHECK_EQ(w.dim(1) % shape.embed, 0)
        << "filter width must be kernel_size * embed";
    OM_CHECK_EQ(static_cast<int>(b.numel()), shape.channels);
    groups[g].kernel_size = w.dim(1) / shape.embed;
    groups[g].weight = w.data().data();
    groups[g].bias = b.data().data();
    parents.push_back(w.impl());
    parents.push_back(b.impl());
  }

  Tensor out = MakeOutput({shape.batch, shape.num_groups * shape.channels},
                          parents);
  // The argmax windows are kept only for the backward pass.
  std::shared_ptr<TextConvWorkspace> ws;
  if (out.requires_grad()) ws = std::make_shared<TextConvWorkspace>();
  TextConvMaxPoolForward(input.data().data(), shape, groups,
                         out.data().data(), ws.get());

  if (out.requires_grad()) {
    TensorImpl* oi = out.impl().get();
    out.impl()->backward_fn = [parents, oi, ws, shape]() {
      TextConvGroup grads[kMaxTextConvGroups];
      for (int g = 0; g < shape.num_groups; ++g) {
        TensorImpl* wi = parents[static_cast<size_t>(1 + 2 * g)].get();
        TensorImpl* bi = parents[static_cast<size_t>(2 + 2 * g)].get();
        grads[g].kernel_size = wi->shape[1] / shape.embed;
        grads[g].weight = wi->data.data();
        grads[g].bias = bi->data.data();
        grads[g].weight_grad = GradOf(wi);
        grads[g].bias_grad = GradOf(bi);
      }
      TensorImpl* xi = parents[0].get();
      const float* dout = GradOf(oi);
      TextConvMaxPoolBackward(xi->data.data(), shape, grads, oi->data.data(),
                              dout, *ws, GradOf(xi));
    };
  }
  graph::Record(graph::OpKind::kTextConvMaxPool, inputs, num_inputs, {}, out);
  return out;
}

Tensor TextConvMaxPool(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, int kernel_size) {
  OM_CHECK_EQ(weight.ndim(), 2);
  OM_CHECK_EQ(input.ndim(), 3);
  OM_CHECK_EQ(weight.dim(1), kernel_size * input.dim(2))
      << "filter width must be kernel_size * embed";
  return TextConvMaxPool(input, std::vector<Tensor>{weight},
                         std::vector<Tensor>{bias});
}

}  // namespace nn
}  // namespace omnimatch
