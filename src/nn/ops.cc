#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/threadpool.h"
#include "nn/elemwise.h"
#include "nn/gemm.h"
#include "nn/graph.h"
#include "nn/text_conv.h"
#include "obs/metrics.h"

namespace omnimatch {
namespace nn {

namespace {

using Impl = std::shared_ptr<TensorImpl>;

/// Tape nodes allocated by eager ops. Replayed graph steps allocate none:
/// the ratio of this counter to steps is the zero-alloc evidence surfaced
/// in the metrics snapshot and BENCH_graph.json.
obs::Counter* NodeAllocCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("nn.tensor_node_allocs");
  return counter;
}

/// Creates the output node of an op: shape, requires_grad propagation, and
/// (when grad is needed) the parent edges. The caller attaches backward_fn
/// only when `out->requires_grad` is true.
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

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  OM_CHECK(a.shape() == b.shape())
      << op << ": " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

/// Graph-executor entry hook: when the calling thread is replaying a
/// compiled plan, dispatches this op call to the plan (running its kernel
/// on arena buffers) and returns true with the node's output tensor. The
/// eager body is skipped entirely. Runs before the op's own input checks —
/// replayed intermediates keep shapes but not data, so value-based checks
/// happen inside the plan kernels instead.
bool ReplayOp(graph::OpKind kind, std::initializer_list<const Tensor*> inputs,
              const graph::OpArgs& args, Tensor* out) {
  graph::Session* session = graph::ActiveReplay();
  if (session == nullptr) return false;
  *out = graph::Replay(session, kind, inputs.begin(),
                       static_cast<int>(inputs.size()), args);
  return true;
}

/// Graph-executor exit hook: appends the op that just executed eagerly to
/// the recording, if one is active. Pure observation.
void RecordOp(graph::OpKind kind, std::initializer_list<const Tensor*> inputs,
              const Tensor& out, const graph::OpArgs& args) {
  graph::Session* session = graph::ActiveRecording();
  if (session == nullptr) return;
  graph::Record(session, kind, inputs.begin(),
                static_cast<int>(inputs.size()), out, args);
}

/// Concat hooks keep the input-pointer array on the stack so the replay
/// path performs no heap allocation.
constexpr size_t kMaxConcatParts = 16;

bool ReplayConcat(graph::OpKind kind, const std::vector<Tensor>& parts,
                  Tensor* out) {
  graph::Session* session = graph::ActiveReplay();
  if (session == nullptr) return false;
  OM_CHECK_LE(parts.size(), kMaxConcatParts) << "concat too wide to replay";
  const Tensor* ptrs[kMaxConcatParts];
  for (size_t i = 0; i < parts.size(); ++i) ptrs[i] = &parts[i];
  *out = graph::Replay(session, kind, ptrs, static_cast<int>(parts.size()),
                       graph::OpArgs());
  return true;
}

void RecordConcat(graph::OpKind kind, const std::vector<Tensor>& parts,
                  const Tensor& out) {
  graph::Session* session = graph::ActiveRecording();
  if (session == nullptr) return;
  if (parts.size() > kMaxConcatParts) {
    graph::AbortRecording(session, "concat with too many parts");
    return;
  }
  const Tensor* ptrs[kMaxConcatParts];
  for (size_t i = 0; i < parts.size(); ++i) ptrs[i] = &parts[i];
  graph::Record(session, kind, ptrs, static_cast<int>(parts.size()), out,
                graph::OpArgs());
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  if (Tensor r; ReplayOp(graph::OpKind::kAdd, {&a, &b}, {}, &r)) return r;
  CheckSameShape(a, b, "Add");
  Tensor out = MakeOutput(a.shape(), {a.impl(), b.impl()});
  const auto& av = a.data();
  const auto& bv = b.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ov[i] = av[i] + bv[i];
  });
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o]() {
      o->EnsureGrad();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) ai->grad[i] += o->grad[i];
        });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) bi->grad[i] += o->grad[i];
        });
      }
    };
  }
  RecordOp(graph::OpKind::kAdd, {&a, &b}, out, {});
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  graph::UnsupportedOp("Sub");
  CheckSameShape(a, b, "Sub");
  Tensor out = MakeOutput(a.shape(), {a.impl(), b.impl()});
  const auto& av = a.data();
  const auto& bv = b.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ov[i] = av[i] - bv[i];
  });
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o]() {
      o->EnsureGrad();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) ai->grad[i] += o->grad[i];
        });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) bi->grad[i] -= o->grad[i];
        });
      }
    };
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  if (Tensor r; ReplayOp(graph::OpKind::kMul, {&a, &b}, {}, &r)) return r;
  CheckSameShape(a, b, "Mul");
  Tensor out = MakeOutput(a.shape(), {a.impl(), b.impl()});
  const auto& av = a.data();
  const auto& bv = b.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ov[i] = av[i] * bv[i];
  });
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o]() {
      o->EnsureGrad();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            ai->grad[i] += o->grad[i] * bi->data[i];
          }
        });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            bi->grad[i] += o->grad[i] * ai->data[i];
          }
        });
      }
    };
  }
  RecordOp(graph::OpKind::kMul, {&a, &b}, out, {});
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  graph::OpArgs args;
  args.f0 = s;
  if (Tensor r; ReplayOp(graph::OpKind::kScale, {&a}, args, &r)) return r;
  Tensor out = MakeOutput(a.shape(), {a.impl()});
  const auto& av = a.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ov[i] = av[i] * s;
  });
  if (out.requires_grad()) {
    Impl ai = a.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, o, s]() {
      o->EnsureGrad();
      ai->EnsureGrad();
      ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) ai->grad[i] += s * o->grad[i];
      });
    };
  }
  RecordOp(graph::OpKind::kScale, {&a}, out, args);
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  graph::UnsupportedOp("AddScalar");
  Tensor out = MakeOutput(a.shape(), {a.impl()});
  const auto& av = a.data();
  auto& ov = out.data();
  for (size_t i = 0; i < ov.size(); ++i) ov[i] = av[i] + s;
  if (out.requires_grad()) {
    Impl ai = a.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, o]() {
      o->EnsureGrad();
      ai->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) ai->grad[i] += o->grad[i];
    };
  }
  return out;
}

Tensor AddRowBroadcast(const Tensor& mat, const Tensor& row) {
  if (Tensor r;
      ReplayOp(graph::OpKind::kAddRowBroadcast, {&mat, &row}, {}, &r)) {
    return r;
  }
  OM_CHECK_EQ(mat.ndim(), 2);
  int rows = mat.dim(0);
  int cols = mat.dim(1);
  OM_CHECK_EQ(static_cast<int>(row.numel()), cols)
      << "bias length must equal column count";
  Tensor out = MakeOutput(mat.shape(), {mat.impl(), row.impl()});
  const auto& mv = mat.data();
  const auto& rv = row.data();
  auto& ov = out.data();
  ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const float* src = mv.data() + static_cast<size_t>(r) * cols;
                  float* dst = ov.data() + static_cast<size_t>(r) * cols;
                  for (int c = 0; c < cols; ++c) dst[c] = src[c] + rv[c];
                }
              });
  if (out.requires_grad()) {
    Impl mi = mat.impl(), ri = row.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [mi, ri, o, rows, cols]() {
      o->EnsureGrad();
      if (mi->requires_grad) {
        mi->EnsureGrad();
        ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) mi->grad[i] += o->grad[i];
        });
      }
      if (ri->requires_grad) {
        ri->EnsureGrad();
        // Column reduction: each column owned by one chunk, rows walked in
        // ascending order — deterministic for any thread count.
        ParallelFor(0, cols, std::max<int64_t>(1, kElemGrain / rows),
                    [&](int64_t c0, int64_t c1) {
                      for (int r = 0; r < rows; ++r) {
                        const float* grow =
                            o->grad.data() + static_cast<size_t>(r) * cols;
                        for (int64_t c = c0; c < c1; ++c) {
                          ri->grad[c] += grow[c];
                        }
                      }
                    });
      }
    };
  }
  RecordOp(graph::OpKind::kAddRowBroadcast, {&mat, &row}, out, {});
  return out;
}

Tensor Relu(const Tensor& x) {
  if (Tensor r; ReplayOp(graph::OpKind::kRelu, {&x}, {}, &r)) return r;
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ov[i] = xv[i] > 0.0f ? xv[i] : 0.0f;
  });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (xi->data[i] > 0.0f) xi->grad[i] += o->grad[i];
        }
      });
    };
  }
  RecordOp(graph::OpKind::kRelu, {&x}, out, {});
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

Tensor Reshape(const Tensor& x, std::vector<int> new_shape) {
  graph::OpArgs args;
  args.shape = &new_shape;
  if (Tensor r; ReplayOp(graph::OpKind::kReshape, {&x}, args, &r)) return r;
  OM_CHECK_EQ(ShapeNumel(new_shape), x.numel())
      << ShapeToString(x.shape()) << " -> " << ShapeToString(new_shape);
  Tensor out = MakeOutput(std::move(new_shape), {x.impl()});
  out.data() = x.data();
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) xi->grad[i] += o->grad[i];
    };
  }
  args.shape = &out.shape();  // new_shape was moved into the output
  RecordOp(graph::OpKind::kReshape, {&x}, out, args);
  return out;
}

Tensor Tanh(const Tensor& x) {
  graph::UnsupportedOp("Tanh");
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ov[i] = std::tanh(xv[i]);
  });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          float y = o->data[i];
          xi->grad[i] += o->grad[i] * (1.0f - y * y);
        }
      });
    };
  }
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  graph::UnsupportedOp("Sigmoid");
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ov[i] = 1.0f / (1.0f + std::exp(-xv[i]));
    }
  });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          float y = o->data[i];
          xi->grad[i] += o->grad[i] * y * (1.0f - y);
        }
      });
    };
  }
  return out;
}

Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng) {
  OM_CHECK(p >= 0.0f && p < 1.0f) << "dropout p=" << p;
  if (!training || p == 0.0f) return x;
  OM_CHECK(rng != nullptr);
  // Hook after the early return: an identity Dropout issues no op call, in
  // recording and replay alike.
  graph::OpArgs args;
  args.f0 = p;
  args.rng = rng;
  if (Tensor r; ReplayOp(graph::OpKind::kDropout, {&x}, args, &r)) return r;
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  float keep_scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(xv.size(), 0.0f);
  // The mask consumes the caller's RNG stream element by element; kept
  // serial so the stream is independent of threading.
  for (size_t i = 0; i < xv.size(); ++i) {
    if (!rng->Bernoulli(p)) (*mask)[i] = keep_scale;
    ov[i] = xv[i] * (*mask)[i];
  }
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, mask]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          xi->grad[i] += o->grad[i] * (*mask)[i];
        }
      });
    };
  }
  RecordOp(graph::OpKind::kDropout, {&x}, out, args);
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (Tensor r; ReplayOp(graph::OpKind::kMatMul, {&a, &b}, {}, &r)) return r;
  OM_CHECK_EQ(a.ndim(), 2);
  OM_CHECK_EQ(b.ndim(), 2);
  int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OM_CHECK_EQ(k, b.dim(0)) << "MatMul inner dims";
  Tensor out = MakeOutput({m, n}, {a.impl(), b.impl()});
  GemmNN(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o, m, k, n]() {
      o->EnsureGrad();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dA[M,K] += dOut[M,N] * B[K,N]^T
        GemmNT(o->grad.data(), bi->data.data(), ai->grad.data(), m, n, k);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // dB[K,N] += A[M,K]^T * dOut[M,N]
        GemmTN(ai->data.data(), o->grad.data(), bi->grad.data(), k, m, n);
      }
    };
  }
  RecordOp(graph::OpKind::kMatMul, {&a, &b}, out, {});
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

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  OM_CHECK(!parts.empty());
  if (Tensor r; ReplayConcat(graph::OpKind::kConcatCols, parts, &r)) {
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
  auto& ov = out.data();
  int col_offset = 0;
  for (const Tensor& p : parts) {
    int cols = p.dim(1);
    const auto& pv = p.data();
    for (int r = 0; r < rows; ++r) {
      std::copy(pv.begin() + static_cast<size_t>(r) * cols,
                pv.begin() + static_cast<size_t>(r + 1) * cols,
                ov.begin() + static_cast<size_t>(r) * total_cols + col_offset);
    }
    col_offset += cols;
  }
  if (out.requires_grad()) {
    std::vector<Impl> impls;
    std::vector<int> widths;
    for (const Tensor& p : parts) {
      impls.push_back(p.impl());
      widths.push_back(p.dim(1));
    }
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [impls, widths, o, rows, total_cols]() {
      o->EnsureGrad();
      int offset = 0;
      for (size_t i = 0; i < impls.size(); ++i) {
        int cols = widths[i];
        if (impls[i]->requires_grad) {
          impls[i]->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            const float* src =
                o->grad.data() + static_cast<size_t>(r) * total_cols + offset;
            float* dst =
                impls[i]->grad.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) dst[c] += src[c];
          }
        }
        offset += cols;
      }
    };
  }
  RecordConcat(graph::OpKind::kConcatCols, parts, out);
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  OM_CHECK(!parts.empty());
  if (Tensor r; ReplayConcat(graph::OpKind::kConcatRows, parts, &r)) {
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
  auto& ov = out.data();
  size_t offset = 0;
  for (const Tensor& p : parts) {
    const auto& pv = p.data();
    std::copy(pv.begin(), pv.end(), ov.begin() + offset);
    offset += pv.size();
  }
  if (out.requires_grad()) {
    std::vector<Impl> impls;
    for (const Tensor& p : parts) impls.push_back(p.impl());
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [impls, o]() {
      o->EnsureGrad();
      size_t off = 0;
      for (const Impl& pi : impls) {
        size_t n = pi->data.size();
        if (pi->requires_grad) {
          pi->EnsureGrad();
          for (size_t i = 0; i < n; ++i) pi->grad[i] += o->grad[off + i];
        }
        off += n;
      }
    };
  }
  RecordConcat(graph::OpKind::kConcatRows, parts, out);
  return out;
}

Tensor Gather(const Tensor& table, const std::vector<int>& ids) {
  graph::OpArgs args;
  args.ints = &ids;
  if (Tensor r; ReplayOp(graph::OpKind::kGather, {&table}, args, &r)) {
    return r;
  }
  OM_CHECK_EQ(table.ndim(), 2);
  int vocab = table.dim(0);
  int width = table.dim(1);
  OM_CHECK(!ids.empty());
  for (int id : ids) {
    OM_CHECK(id >= 0 && id < vocab) << "Gather id " << id << " of " << vocab;
  }
  Tensor out =
      MakeOutput({static_cast<int>(ids.size()), width}, {table.impl()});
  const auto& tv = table.data();
  auto& ov = out.data();
  ParallelFor(0, static_cast<int64_t>(ids.size()),
              std::max<int64_t>(1, kElemGrain / width),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  std::copy(
                      tv.begin() + static_cast<size_t>(ids[r]) * width,
                      tv.begin() + static_cast<size_t>(ids[r] + 1) * width,
                      ov.begin() + static_cast<size_t>(r) * width);
                }
              });
  if (out.requires_grad()) {
    Impl ti = table.impl();
    TensorImpl* o = out.impl().get();
    auto ids_copy = std::make_shared<std::vector<int>>(ids);
    out.impl()->backward_fn = [ti, o, ids_copy, vocab, width]() {
      o->EnsureGrad();
      ti->EnsureGrad();
      // Scatter-add sharded by destination row: a chunk owns the table rows
      // in [lo, hi) and walks the id list in order, accumulating only the
      // ids it owns. Every table row is updated by exactly one chunk with a
      // fixed accumulation order, so the result is race-free and
      // bit-identical for any thread count. Each chunk rescans the id list,
      // which is cheap next to the touched gradient rows; the scan also
      // keeps the naturally sparse structure (only referenced rows are
      // written) without a sort or per-thread buffers.
      int64_t work =
          static_cast<int64_t>(ids_copy->size()) * width;
      int64_t shard_rows =
          work < kElemGrain
              ? vocab  // single shard: plain serial scatter
              : std::max<int64_t>(64, vocab / (GetNumThreads() * 4));
      ParallelFor(0, vocab, shard_rows, [&](int64_t lo, int64_t hi) {
        for (size_t r = 0; r < ids_copy->size(); ++r) {
          int id = (*ids_copy)[r];
          if (id < lo || id >= hi) continue;
          float* dst = ti->grad.data() + static_cast<size_t>(id) * width;
          const float* src = o->grad.data() + r * width;
          for (int c = 0; c < width; ++c) dst[c] += src[c];
        }
      });
    };
  }
  RecordOp(graph::OpKind::kGather, {&table}, out, args);
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

Tensor MeanAxis1(const Tensor& x) {
  if (Tensor r; ReplayOp(graph::OpKind::kMeanAxis1, {&x}, {}, &r)) return r;
  OM_CHECK_EQ(x.ndim(), 3);
  int batch = x.dim(0);
  int length = x.dim(1);
  int width = x.dim(2);
  Tensor out = MakeOutput({batch, width}, {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  float inv = 1.0f / static_cast<float>(length);
  int64_t per_doc = static_cast<int64_t>(length) * width;
  ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  float* orow = ov.data() + static_cast<size_t>(b) * width;
                  for (int l = 0; l < length; ++l) {
                    const float* row =
                        xv.data() +
                        (static_cast<size_t>(b) * length + l) * width;
                    for (int e = 0; e < width; ++e) orow[e] += row[e];
                  }
                  for (int e = 0; e < width; ++e) orow[e] *= inv;
                }
              });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, batch, length, width, inv,
                               per_doc]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
                  [&](int64_t b0, int64_t b1) {
                    for (int64_t b = b0; b < b1; ++b) {
                      const float* grow =
                          o->grad.data() + static_cast<size_t>(b) * width;
                      for (int l = 0; l < length; ++l) {
                        float* row =
                            xi->grad.data() +
                            (static_cast<size_t>(b) * length + l) * width;
                        for (int e = 0; e < width; ++e) {
                          row[e] += inv * grow[e];
                        }
                      }
                    }
                  });
    };
  }
  RecordOp(graph::OpKind::kMeanAxis1, {&x}, out, {});
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

Tensor GradReverse(const Tensor& x, float lambda) {
  graph::OpArgs args;
  args.f0 = lambda;
  if (Tensor r; ReplayOp(graph::OpKind::kGradReverse, {&x}, args, &r)) {
    return r;
  }
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  out.data() = x.data();
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, lambda]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) {
        xi->grad[i] -= lambda * o->grad[i];
      }
    };
  }
  RecordOp(graph::OpKind::kGradReverse, {&x}, out, args);
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
  if (graph::Session* session = graph::ActiveReplay()) {
    return graph::Replay(session, graph::OpKind::kTextConvMaxPool, inputs,
                         num_inputs, graph::OpArgs());
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
                          std::move(parents));
  // argmax window per output, kept only for the backward pass.
  std::shared_ptr<std::vector<int>> argmax;
  if (out.requires_grad()) {
    argmax = std::make_shared<std::vector<int>>(out.data().size(), 0);
  }
  TextConvMaxPoolForward(input.data().data(), shape, groups,
                         out.data().data(),
                         argmax != nullptr ? argmax->data() : nullptr);

  if (out.requires_grad()) {
    std::vector<Impl> impls;
    for (int i = 0; i < num_inputs; ++i) impls.push_back(inputs[i]->impl());
    TensorImpl* oi = out.impl().get();
    out.impl()->backward_fn = [impls, oi, argmax, shape]() {
      oi->EnsureGrad();
      TextConvGroup grads[kMaxTextConvGroups];
      for (int g = 0; g < shape.num_groups; ++g) {
        TensorImpl* wi = impls[static_cast<size_t>(1 + 2 * g)].get();
        TensorImpl* bi = impls[static_cast<size_t>(2 + 2 * g)].get();
        grads[g].kernel_size = wi->shape[1] / shape.embed;
        grads[g].weight = wi->data.data();
        grads[g].bias = bi->data.data();
        if (wi->requires_grad) {
          wi->EnsureGrad();
          grads[g].weight_grad = wi->grad.data();
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          grads[g].bias_grad = bi->grad.data();
        }
      }
      TensorImpl* xi = impls[0].get();
      float* dx = nullptr;
      if (xi->requires_grad) {
        xi->EnsureGrad();
        dx = xi->grad.data();
      }
      TextConvMaxPoolBackward(xi->data.data(), shape, grads, oi->data.data(),
                              oi->grad.data(), argmax->data(), dx);
    };
  }
  if (graph::Session* session = graph::ActiveRecording()) {
    graph::Record(session, graph::OpKind::kTextConvMaxPool, inputs,
                  num_inputs, out, graph::OpArgs());
  }
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
