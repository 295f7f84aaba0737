#ifndef OMNIMATCH_NN_GEMM_GEMM_KERNEL_H_
#define OMNIMATCH_NN_GEMM_GEMM_KERNEL_H_

#include "common/cpu.h"

namespace omnimatch {
namespace nn {
namespace gemm {

/// The blocked float GEMM behind nn/gemm.h, compiled once per ISA flavor
/// from gemm_impl.inc with exactly that flavor's arch flags plus
/// -ffp-contract=off. Every flavor computes the same kMR x kNR register
/// tile with the same multiplies and adds in the same order per output
/// element (see gemm_impl.inc), so all of them are bit-identical; they
/// differ only in how many outputs one instruction produces.

/// Register tile: kMR rows x kNR columns of C.
inline constexpr int kMR = 8;
inline constexpr int kNR = 32;

/// One flavor's entry points.
struct Kernel {
  /// Packs rows [0, kc) x cols [0, nc) of a B view into kNR-wide panels
  /// (bp[panel][k][j]), zero-padding the last panel to kNR columns.
  /// trans == false: element (k, j) = b[k * ldb + j]. trans == true:
  /// element (k, j) = b[j * ldb + k], i.e. B is stored [N, K].
  void (*pack_b)(const float* b, int ldb, bool trans, int kc, int nc,
                 float* bp);
  /// C[0:mc, 0:nc] (row stride ldc) += opA(A)[0:mc, 0:kc] * packed B:
  /// packs the A view (same `trans` convention as pack_b, A stored [K, M]
  /// when transposed) into `ap`, ceil(mc / kMR) * kc * kMR floats, then
  /// runs the register tile over every strip x panel.
  void (*block)(const float* a, int lda, bool trans, int mc, int kc, int nc,
                const float* bp, float* ap, float* c, int ldc);
};

/// The flavor for `level`: AVX-512 or AVX2 when this binary compiled it and
/// the level allows it, else the portable flavor, which always exists.
const Kernel& SelectKernel(IsaLevel level);

/// Operand layouts of the public variants (nn/gemm.h).
enum class Layout { kNN, kNT, kTN };

/// GemmNN / GemmNT / GemmTN with an explicit flavor and without the obs
/// counters (the per-ISA equivalence test runs every flavor the host
/// supports).
void GemmWith(const Kernel& kernel, Layout layout, const float* a,
              const float* b, float* c, int m_dim, int k_dim, int n_dim);

/// FusedLinearForward with an explicit flavor, likewise.
void FusedLinearForwardWith(const Kernel& kernel, const float* a,
                            const float* b, const float* bias, float* c,
                            int m_dim, int k_dim, int n_dim, bool relu);

namespace isa_portable {
extern const Kernel kKernel;
}
#if defined(OMNIMATCH_HAVE_AVX2)
namespace isa_avx2 {
extern const Kernel kKernel;
}
#endif
#if defined(OMNIMATCH_HAVE_AVX512)
namespace isa_avx512 {
extern const Kernel kKernel;
}
#endif

}  // namespace gemm
}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_GEMM_GEMM_KERNEL_H_
