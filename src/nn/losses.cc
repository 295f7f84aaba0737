#include "nn/losses.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/threadpool.h"
#include "nn/elemwise.h"
#include "nn/gemm.h"
#include "nn/op_kernels.h"

namespace omnimatch {
namespace nn {

void CrossEntropyWorkspace::Size(int batch, int classes) {
  probs.resize(static_cast<size_t>(batch) * classes);
  row_loss.resize(static_cast<size_t>(batch));
}

float SoftmaxCrossEntropyForward(const float* logits, const int* labels,
                                 int batch, int classes,
                                 CrossEntropyWorkspace* ws) {
  for (int b = 0; b < batch; ++b) {
    OM_CHECK(labels[b] >= 0 && labels[b] < classes) << "label " << labels[b];
  }
  ws->Size(batch, classes);
  float* probs = ws->probs.data();
  float* row_loss = ws->row_loss.data();
  // Row-parallel softmax; per-row losses are combined serially in index
  // order so the scalar is thread-count invariant.
  ParallelFor(0, batch, 64, kElemWork * classes, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* row = logits + static_cast<size_t>(b) * classes;
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
  return static_cast<float>(total / batch);
}

void SoftmaxCrossEntropyBackward(const CrossEntropyWorkspace& ws,
                                 const int* labels, int batch, int classes,
                                 float dloss, float* dlogits) {
  float g = dloss / static_cast<float>(batch);
  for (int b = 0; b < batch; ++b) {
    const float* prow = ws.probs.data() + static_cast<size_t>(b) * classes;
    float* drow = dlogits + static_cast<size_t>(b) * classes;
    int y = labels[b];
    for (int c = 0; c < classes; ++c) {
      drow[c] += g * (prow[c] - (c == y ? 1.0f : 0.0f));
    }
  }
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels) {
  OM_CHECK_EQ(logits.ndim(), 2);
  int batch = logits.dim(0);
  int classes = logits.dim(1);
  OM_CHECK_GT(batch, 0);  // mean over an empty batch is NaN
  OM_CHECK_EQ(static_cast<size_t>(batch), labels.size());

  Tensor out = MakeOutput({1}, {logits.impl()});
  // The probabilities are kept for the backward pass.
  auto ws = std::make_shared<CrossEntropyWorkspace>();
  out.data()[0] = SoftmaxCrossEntropyForward(logits.data().data(),
                                             labels.data(), batch, classes,
                                             ws.get());
  if (out.requires_grad()) {
    auto li = logits.impl();
    TensorImpl* o = out.impl().get();
    auto labels_copy = std::make_shared<std::vector<int>>(labels);
    out.impl()->backward_fn = [li, o, ws, labels_copy, batch, classes]() {
      const float dloss = GradOf(o)[0];
      SoftmaxCrossEntropyBackward(*ws, labels_copy->data(), batch, classes,
                                  dloss, GradOf(li.get()));
    };
  }
  return out;
}

Tensor MseLoss(const Tensor& pred, const std::vector<float>& target) {
  OM_CHECK_EQ(static_cast<size_t>(pred.numel()), target.size());
  int n = static_cast<int>(target.size());
  OM_CHECK_GT(n, 0);  // mean over an empty batch is NaN

  Tensor out = MakeOutput({1}, {pred.impl()});
  const float* p = pred.data().data();
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    double d = static_cast<double>(p[i]) - target[i];
    total += d * d;
  }
  out.data()[0] = static_cast<float>(total / n);

  if (out.requires_grad()) {
    auto pi = pred.impl();
    TensorImpl* o = out.impl().get();
    auto target_copy = std::make_shared<std::vector<float>>(target);
    out.impl()->backward_fn = [pi, o, target_copy, n]() {
      o->EnsureGrad();
      pi->EnsureGrad();
      float g = o->grad[0] * 2.0f / static_cast<float>(n);
      for (int i = 0; i < n; ++i) {
        pi->grad[i] += g * (pi->data[i] - (*target_copy)[i]);
      }
    };
  }
  return out;
}

void SupConWorkspace::Size(int batch, int dim) {
  const size_t rows = static_cast<size_t>(batch);
  norm_feats.resize(rows * dim);
  norms.resize(rows);
  sims.resize(rows * rows);
  probs.resize(rows * rows);
  lse.resize(rows);
  anchor_loss.resize(rows);
  pos_count.resize(rows);
  gmat.resize(rows * rows);
  sym.resize(rows * rows);
  dnorm.resize(rows * dim);
}

float SupConForward(const float* z, const int* labels, int batch, int dim,
                    float temperature, SupConWorkspace* ws) {
  ws->Size(batch, dim);
  float* norm_feats = ws->norm_feats.data();
  float* norms = ws->norms.data();
  float* sims = ws->sims.data();
  float* probs = ws->probs.data();
  float* lse = ws->lse.data();
  double* anchor_loss = ws->anchor_loss.data();
  int* pos_count = ws->pos_count.data();

  // 1. L2-normalize rows.
  ParallelFor(0, batch, 8, kElemWork * dim, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* row = z + static_cast<size_t>(i) * dim;
      double sq = 0.0;
      for (int d = 0; d < dim; ++d) sq += static_cast<double>(row[d]) * row[d];
      float norm = static_cast<float>(std::sqrt(sq)) + 1e-8f;
      norms[i] = norm;
      float* nrow = norm_feats + static_cast<size_t>(i) * dim;
      for (int d = 0; d < dim; ++d) nrow[d] = row[d] / norm;
    }
  });

  // 2. Similarities s_ij = <ẑ_i, ẑ_j> / τ and softmax denominators over
  //    A(i) = all j != i. Shifted by the row max for stability. The full
  //    Gram matrix Ẑ Ẑ^T is one GEMM; the diagonal comes along for free and
  //    every later pass skips it.
  const float inv_tau = 1.0f / temperature;
  const size_t bb = static_cast<size_t>(batch) * batch;
  std::fill(sims, sims + bb, 0.0f);
  GemmNT(norm_feats, norm_feats, sims, batch, dim, batch);
  for (size_t i = 0; i < bb; ++i) sims[i] *= inv_tau;

  // p_ij = exp(s_ij) / sum_{a != i} exp(s_ia), with p_ii = 0; kept for
  // backward. Each anchor row is owned by one chunk, so probs/lse are
  // deterministic.
  ParallelFor(0, batch, 8, kElemWork * batch, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      float* prow = probs + static_cast<size_t>(i) * batch;
      const float* srow = sims + static_cast<size_t>(i) * batch;
      float max_v = -1e30f;
      for (int j = 0; j < batch; ++j) {
        if (j != i) max_v = std::max(max_v, srow[j]);
      }
      double sum = 0.0;
      for (int j = 0; j < batch; ++j) {
        if (j == i) continue;
        double e = std::exp(srow[j] - max_v);
        prow[j] = static_cast<float>(e);
        sum += e;
      }
      prow[i] = 0.0f;
      lse[i] = max_v + static_cast<float>(std::log(sum));
      float inv = static_cast<float>(1.0 / sum);
      for (int j = 0; j < batch; ++j) prow[j] *= inv;
    }
  });

  // 3. Per-anchor loss over P(i) = {p != i : label_p == label_i}.
  // Per-anchor partials are combined serially in index order so the scalar
  // loss is independent of the thread count.
  ParallelFor(0, batch, 8, kElemWork * batch, [&](int64_t i0, int64_t i1) {
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
  ws->valid_anchors = valid_anchors;
  return valid_anchors > 0 ? static_cast<float>(total / valid_anchors) : 0.0f;
}

void SupConBackward(const int* labels, int batch, int dim, float temperature,
                    float dloss, SupConWorkspace* ws, float* dz) {
  OM_CHECK_GT(ws->valid_anchors, 0);
  const float* norm_feats = ws->norm_feats.data();
  const float* norms = ws->norms.data();
  const float* probs = ws->probs.data();
  const int* pos_count = ws->pos_count.data();
  float* gmat = ws->gmat.data();
  float* sym = ws->sym.data();
  float* dnorm = ws->dnorm.data();
  const float inv_tau = 1.0f / temperature;
  const float gscale = dloss / static_cast<float>(ws->valid_anchors);
  // g_ij = dL/ds_ij for anchor i (0 on the diagonal and for anchors
  // without positives). Anchor rows are independent.
  std::fill(gmat, gmat + static_cast<size_t>(batch) * batch, 0.0f);
  ParallelFor(0, batch, 8, kElemWork * batch, [&](int64_t i0, int64_t i1) {
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
  // dL/dẑ = (1/τ) (G + G^T) Ẑ — symmetrize, then one GEMM. The diagonal of
  // G is zero, so no j == k exclusion is needed.
  ParallelFor(0, batch, 8, kElemWork * batch, [&](int64_t k0, int64_t k1) {
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
  // Chain through the normalization ẑ = z/||z||:
  // dz = (dẑ - (dẑ·ẑ) ẑ) / ||z||. Feature rows are independent.
  ParallelFor(0, batch, 8, kElemWork * dim, [&](int64_t k0, int64_t k1) {
    for (int64_t k = k0; k < k1; ++k) {
      const float* zk = norm_feats + static_cast<size_t>(k) * dim;
      const float* dk = dnorm + static_cast<size_t>(k) * dim;
      float* dst = dz + static_cast<size_t>(k) * dim;
      float dot = 0.0f;
      for (int d = 0; d < dim; ++d) dot += dk[d] * zk[d];
      float inv_norm = 1.0f / norms[k];
      for (int d = 0; d < dim; ++d) {
        dst[d] += (dk[d] - dot * zk[d]) * inv_norm;
      }
    }
  });
}

Tensor SupConLoss(const Tensor& features, const std::vector<int>& labels,
                  float temperature) {
  OM_CHECK_EQ(features.ndim(), 2);
  int batch = features.dim(0);
  int dim = features.dim(1);
  OM_CHECK_EQ(static_cast<size_t>(batch), labels.size());
  OM_CHECK_GT(temperature, 0.0f);

  if (batch < 2) {
    // A single feature (or none) cannot form a positive pair. Bail out
    // before the softmax-over-A(i) pass: with an empty A(i) its
    // log-sum-exp is log(0) = -inf, a non-finite intermediate that health
    // scans would flag even though the final loss is a constant zero.
    return Tensor::Scalar(0.0f);
  }

  auto ws = std::make_shared<SupConWorkspace>();
  const float loss = SupConForward(features.data().data(), labels.data(),
                                   batch, dim, temperature, ws.get());
  if (ws->valid_anchors == 0) {
    // No positive pairs in the batch; constant zero, no gradient.
    return Tensor::Scalar(0.0f);
  }

  Tensor out = MakeOutput({1}, {features.impl()});
  out.data()[0] = loss;
  if (out.requires_grad()) {
    auto fi = features.impl();
    TensorImpl* o = out.impl().get();
    auto labels_copy = std::make_shared<std::vector<int>>(labels);
    out.impl()->backward_fn = [fi, o, ws, labels_copy, batch, dim,
                               temperature]() {
      const float dloss = GradOf(o)[0];
      SupConBackward(labels_copy->data(), batch, dim, temperature, dloss,
                     ws.get(), GradOf(fi.get()));
    };
  }
  return out;
}

}  // namespace nn
}  // namespace omnimatch
