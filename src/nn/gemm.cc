#include "nn/gemm.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "nn/elemwise.h"
#include "obs/metrics.h"

namespace omnimatch {
namespace nn {

namespace {

// Kernel-dispatch instrumentation: one call counter per public variant plus
// a shared FLOP counter. Two relaxed increments per GEMM — noise next to
// the packing the kernel does anyway.
obs::Counter* GemmCallCounter(const char* variant) {
  return obs::MetricsRegistry::Global().GetCounter(
      std::string("gemm.calls.") + variant);
}
obs::Counter* GemmFlops() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("gemm.flops");
  return c;
}
void CountGemm(obs::Counter* calls, int m_dim, int k_dim, int n_dim) {
  calls->Increment();
  GemmFlops()->Add(2LL * m_dim * k_dim * n_dim);
}

// Micro-tile: kMR x kNR accumulators live in registers across the K loop.
// 8 rows x 32 columns = 16 zmm accumulators under AVX-512 (half the
// register file), or spills gracefully to narrower ISAs — correctness never
// depends on the vector width.
constexpr int kMR = 8;
constexpr int kNR = 32;
// Cache blocking: a kMC x kKC packed A block (~128 KiB) targets L2, a
// kKC x kNC packed B block streams through the micro-kernel panel by panel.
constexpr int kMC = 128;
constexpr int kKC = 256;
constexpr int kNC = 512;

// Computes a kMR x kNR tile of C from packed panels.
// ap: kc x kMR (column i is row i0+i of A), bp: kc x kNR, both zero-padded.
// The full-tile path reads and writes C directly; edge tiles go through a
// local buffer so the zero padding never leaks out of bounds.
void MicroKernel(const float* ap, const float* bp, int kc, float* c, int ldc,
                 int mr, int nr) {
  float acc[kMR * kNR];
  if (mr == kMR && nr == kNR) {
    for (int i = 0; i < kMR; ++i) {
      for (int j = 0; j < kNR; ++j) acc[i * kNR + j] = c[i * ldc + j];
    }
    for (int k = 0; k < kc; ++k) {
      const float* arow = ap + static_cast<size_t>(k) * kMR;
      const float* brow = bp + static_cast<size_t>(k) * kNR;
      for (int i = 0; i < kMR; ++i) {
        float av = arow[i];
        for (int j = 0; j < kNR; ++j) acc[i * kNR + j] += av * brow[j];
      }
    }
    for (int i = 0; i < kMR; ++i) {
      for (int j = 0; j < kNR; ++j) c[i * ldc + j] = acc[i * kNR + j];
    }
  } else {
    std::memset(acc, 0, sizeof(acc));
    for (int k = 0; k < kc; ++k) {
      const float* arow = ap + static_cast<size_t>(k) * kMR;
      const float* brow = bp + static_cast<size_t>(k) * kNR;
      for (int i = 0; i < kMR; ++i) {
        float av = arow[i];
        for (int j = 0; j < kNR; ++j) acc[i * kNR + j] += av * brow[j];
      }
    }
    for (int i = 0; i < mr; ++i) {
      for (int j = 0; j < nr; ++j) c[i * ldc + j] += acc[i * kNR + j];
    }
  }
}

/// Packs rows [0, mc) x cols [0, kc) of an A view into kMR-tall strips
/// (ap[strip][k][i]), zero-padding the last strip to kMR rows.
/// trans == false: element (i, k) = a[i * lda + k]. trans == true: element
/// (i, k) = a[k * lda + i], i.e. A is stored [K, M].
void PackA(const float* a, int lda, bool trans, int mc, int kc, float* ap) {
  for (int i0 = 0; i0 < mc; i0 += kMR) {
    int mr = std::min(kMR, mc - i0);
    if (!trans) {
      for (int k = 0; k < kc; ++k) {
        float* dst = ap + static_cast<size_t>(k) * kMR;
        for (int i = 0; i < mr; ++i) {
          dst[i] = a[static_cast<size_t>(i0 + i) * lda + k];
        }
        for (int i = mr; i < kMR; ++i) dst[i] = 0.0f;
      }
    } else {
      for (int k = 0; k < kc; ++k) {
        const float* src = a + static_cast<size_t>(k) * lda + i0;
        float* dst = ap + static_cast<size_t>(k) * kMR;
        for (int i = 0; i < mr; ++i) dst[i] = src[i];
        for (int i = mr; i < kMR; ++i) dst[i] = 0.0f;
      }
    }
    ap += static_cast<size_t>(kc) * kMR;
  }
}

/// Packs rows [0, kc) x cols [0, nc) of a B view into kNR-wide panels
/// (bp[panel][k][j]), zero-padding the last panel to kNR columns.
/// trans == false: element (k, j) = b[k * ldb + j]. trans == true: element
/// (k, j) = b[j * ldb + k], i.e. B is stored [N, K].
void PackB(const float* b, int ldb, bool trans, int kc, int nc, float* bp) {
  for (int j0 = 0; j0 < nc; j0 += kNR) {
    int nr = std::min(kNR, nc - j0);
    if (!trans) {
      for (int k = 0; k < kc; ++k) {
        const float* src = b + static_cast<size_t>(k) * ldb + j0;
        float* dst = bp + static_cast<size_t>(k) * kNR;
        for (int j = 0; j < nr; ++j) dst[j] = src[j];
        for (int j = nr; j < kNR; ++j) dst[j] = 0.0f;
      }
    } else {
      for (int k = 0; k < kc; ++k) {
        float* dst = bp + static_cast<size_t>(k) * kNR;
        for (int j = 0; j < nr; ++j) {
          dst[j] = b[static_cast<size_t>(j0 + j) * ldb + k];
        }
        for (int j = nr; j < kNR; ++j) dst[j] = 0.0f;
      }
    }
    bp += static_cast<size_t>(kc) * kNR;
  }
}

/// C[M,N] += opA(A) * opB(B). The outer loops follow the BLIS scheme
/// (jc -> pc -> ic); rows of C are sharded over the thread pool inside each
/// (jc, pc) block, every task packing its own A strips into a thread-local
/// buffer. Per C element the K dimension is accumulated in ascending order
/// regardless of sharding, so results are thread-count invariant.
void BlockedGemm(const float* a, int lda, bool trans_a, const float* b,
                 int ldb, bool trans_b, float* c, int m_dim, int k_dim,
                 int n_dim) {
  if (m_dim <= 0 || k_dim <= 0 || n_dim <= 0) return;
  static thread_local std::vector<float> bpack;
  for (int jc = 0; jc < n_dim; jc += kNC) {
    int nc = std::min(kNC, n_dim - jc);
    int npanels = (nc + kNR - 1) / kNR;
    for (int pc = 0; pc < k_dim; pc += kKC) {
      int kc = std::min(kKC, k_dim - pc);
      bpack.resize(static_cast<size_t>(npanels) * kc * kNR);
      const float* bblock = trans_b
                                ? b + static_cast<size_t>(jc) * ldb + pc
                                : b + static_cast<size_t>(pc) * ldb + jc;
      PackB(bblock, ldb, trans_b, kc, nc, bpack.data());
      const float* bp = bpack.data();

      int mstrips = (m_dim + kMR - 1) / kMR;
      // A chunk packs and computes kMC rows at a time; smaller jobs run
      // inline on the calling thread (grain), larger ones shard over rows.
      ParallelFor(0, mstrips, kMC / kMR, [&](int64_t s0, int64_t s1) {
        static thread_local std::vector<float> apack;
        for (int64_t sc = s0; sc < s1; sc += kMC / kMR) {
          int64_t se = std::min(s1, sc + kMC / kMR);
          int ic = static_cast<int>(sc) * kMR;
          int mc = std::min(static_cast<int>(se) * kMR, m_dim) - ic;
          int strips = (mc + kMR - 1) / kMR;
          apack.resize(static_cast<size_t>(strips) * kc * kMR);
          const float* ablock = trans_a
                                    ? a + static_cast<size_t>(pc) * lda + ic
                                    : a + static_cast<size_t>(ic) * lda + pc;
          PackA(ablock, lda, trans_a, mc, kc, apack.data());
          for (int i0 = 0; i0 < mc; i0 += kMR) {
            const float* ap =
                apack.data() + static_cast<size_t>(i0 / kMR) * kc * kMR;
            int mr = std::min(kMR, mc - i0);
            for (int j0 = 0; j0 < nc; j0 += kNR) {
              int nr = std::min(kNR, nc - j0);
              MicroKernel(ap, bp + static_cast<size_t>(j0 / kNR) * kc * kNR,
                          kc,
                          c + static_cast<size_t>(ic + i0) * n_dim + jc + j0,
                          n_dim, mr, nr);
            }
          }
        }
      });
    }
  }
}

}  // namespace

void GemmNN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  static obs::Counter* const calls = GemmCallCounter("nn");
  CountGemm(calls, m_dim, k_dim, n_dim);
  BlockedGemm(a, k_dim, /*trans_a=*/false, b, n_dim, /*trans_b=*/false, c,
              m_dim, k_dim, n_dim);
}

void GemmNT(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  static obs::Counter* const calls = GemmCallCounter("nt");
  CountGemm(calls, m_dim, k_dim, n_dim);
  BlockedGemm(a, k_dim, /*trans_a=*/false, b, k_dim, /*trans_b=*/true, c,
              m_dim, k_dim, n_dim);
}

void GemmTN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  static obs::Counter* const calls = GemmCallCounter("tn");
  CountGemm(calls, m_dim, k_dim, n_dim);
  BlockedGemm(a, m_dim, /*trans_a=*/true, b, n_dim, /*trans_b=*/false, c,
              m_dim, k_dim, n_dim);
}

void FusedLinearForward(const float* a, const float* b, const float* bias,
                        float* c, int m_dim, int k_dim, int n_dim,
                        bool relu) {
  size_t total = static_cast<size_t>(m_dim) * n_dim;
  std::fill(c, c + total, 0.0f);
  GemmNN(a, b, c, m_dim, k_dim, n_dim);
  // Row sharding and the ReLU expression match the eager AddRowBroadcast /
  // Relu kernels exactly (including `v > 0 ? v : 0`, which maps -0.0f to
  // +0.0f the same way), keeping fused output bit-identical to unfused.
  ParallelFor(0, m_dim, std::max<int64_t>(1, kElemGrain / n_dim),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  float* row = c + static_cast<size_t>(r) * n_dim;
                  for (int n = 0; n < n_dim; ++n) {
                    float v = row[n] + bias[n];
                    row[n] = relu ? (v > 0.0f ? v : 0.0f) : v;
                  }
                }
              });
}

namespace reference {

void GemmNN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  for (int m = 0; m < m_dim; ++m) {
    float* crow = c + static_cast<size_t>(m) * n_dim;
    const float* arow = a + static_cast<size_t>(m) * k_dim;
    for (int k = 0; k < k_dim; ++k) {
      float av = arow[k];
      const float* brow = b + static_cast<size_t>(k) * n_dim;
      for (int n = 0; n < n_dim; ++n) crow[n] += av * brow[n];
    }
  }
}

void GemmNT(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  for (int m = 0; m < m_dim; ++m) {
    const float* arow = a + static_cast<size_t>(m) * k_dim;
    float* crow = c + static_cast<size_t>(m) * n_dim;
    for (int n = 0; n < n_dim; ++n) {
      const float* brow = b + static_cast<size_t>(n) * k_dim;
      float acc = 0.0f;
      for (int k = 0; k < k_dim; ++k) acc += arow[k] * brow[k];
      crow[n] += acc;
    }
  }
}

void GemmTN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  for (int k = 0; k < k_dim; ++k) {
    const float* arow = a + static_cast<size_t>(k) * m_dim;
    const float* brow = b + static_cast<size_t>(k) * n_dim;
    for (int m = 0; m < m_dim; ++m) {
      float av = arow[m];
      float* crow = c + static_cast<size_t>(m) * n_dim;
      for (int n = 0; n < n_dim; ++n) crow[n] += av * brow[n];
    }
  }
}

}  // namespace reference

}  // namespace nn
}  // namespace omnimatch
