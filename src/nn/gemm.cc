#include "nn/gemm.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/threadpool.h"
#include "nn/gemm/gemm_kernel.h"
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

// Cache blocking: a kMC x kKC packed A block (~128 KiB) targets L2, a
// kKC x kNC packed B block streams through the micro-kernel panel by panel.
constexpr int kMC = 128;
constexpr int kKC = 256;
constexpr int kNC = 512;

/// SelectKernel(ActiveIsa()), resolved once.
const gemm::Kernel& ActiveKernel() {
  static const gemm::Kernel& kernel = gemm::SelectKernel(ActiveIsa());
  return kernel;
}

}  // namespace

namespace gemm {

// Compiled with the default portable flags: this file only takes the
// addresses of the per-ISA entry points, so no wide instruction can run
// before cpuid approves it.
const Kernel& SelectKernel(IsaLevel level) {
#if defined(OMNIMATCH_HAVE_AVX512)
  if (level == IsaLevel::kAvx512) return isa_avx512::kKernel;
#endif
#if defined(OMNIMATCH_HAVE_AVX2)
  if (level == IsaLevel::kAvx2 || level == IsaLevel::kAvx512) {
    return isa_avx2::kKernel;
  }
#endif
  (void)level;
  return isa_portable::kKernel;
}

namespace {

/// C[M,N] += opA(A) * opB(B). The outer loops follow the BLIS scheme
/// (jc -> pc -> ic); rows of C are sharded over the thread pool inside each
/// (jc, pc) block, every task packing its own A strips into a thread-local
/// buffer. Per C element the K dimension is accumulated in ascending order
/// regardless of sharding, so results are thread-count invariant.
void BlockedGemm(const Kernel& kernel, const float* a, int lda, bool trans_a,
                 const float* b, int ldb, bool trans_b, float* c, int m_dim,
                 int k_dim, int n_dim) {
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
      kernel.pack_b(bblock, ldb, trans_b, kc, nc, bpack.data());
      const float* bp = bpack.data();

      int mstrips = (m_dim + kMR - 1) / kMR;
      // A chunk packs and computes kMC rows at a time. A job of one chunk,
      // or one whose strips (kMR x kc x nc multiply-adds each) add up to
      // less than kSerialWorkLimit, runs inline on the calling thread;
      // larger ones shard over rows.
      const int64_t strip_work = 2LL * kMR * kc * nc;
      ParallelFor(0, mstrips, kMC / kMR, strip_work,
                  [&](int64_t s0, int64_t s1) {
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
          kernel.block(ablock, lda, trans_a, mc, kc, nc, bp, apack.data(),
                       c + static_cast<size_t>(ic) * n_dim + jc, n_dim);
        }
      });
    }
  }
}

}  // namespace

void GemmWith(const Kernel& kernel, Layout layout, const float* a,
              const float* b, float* c, int m_dim, int k_dim, int n_dim) {
  switch (layout) {
    case Layout::kNN:
      BlockedGemm(kernel, a, k_dim, /*trans_a=*/false, b, n_dim,
                  /*trans_b=*/false, c, m_dim, k_dim, n_dim);
      return;
    case Layout::kNT:
      BlockedGemm(kernel, a, k_dim, /*trans_a=*/false, b, k_dim,
                  /*trans_b=*/true, c, m_dim, k_dim, n_dim);
      return;
    case Layout::kTN:
      BlockedGemm(kernel, a, m_dim, /*trans_a=*/true, b, n_dim,
                  /*trans_b=*/false, c, m_dim, k_dim, n_dim);
      return;
  }
}

}  // namespace gemm

void GemmNN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  static obs::Counter* const calls = GemmCallCounter("nn");
  CountGemm(calls, m_dim, k_dim, n_dim);
  gemm::GemmWith(ActiveKernel(), gemm::Layout::kNN, a, b, c, m_dim, k_dim,
                 n_dim);
}

void GemmNT(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  static obs::Counter* const calls = GemmCallCounter("nt");
  CountGemm(calls, m_dim, k_dim, n_dim);
  gemm::GemmWith(ActiveKernel(), gemm::Layout::kNT, a, b, c, m_dim, k_dim,
                 n_dim);
}

void GemmTN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim) {
  static obs::Counter* const calls = GemmCallCounter("tn");
  CountGemm(calls, m_dim, k_dim, n_dim);
  gemm::GemmWith(ActiveKernel(), gemm::Layout::kTN, a, b, c, m_dim, k_dim,
                 n_dim);
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
