#ifndef OMNIMATCH_NN_GEMM_H_
#define OMNIMATCH_NN_GEMM_H_

namespace omnimatch {
namespace nn {

/// Cache-blocked, register-tiled, thread-parallel single-precision matrix
/// multiplication kernels — the compute substrate under MatMul, MatMulNT
/// and their backward passes. (The text convolution has its own
/// tap-decomposed kernel, nn/text_conv.h.)
///
/// All variants *accumulate* (C += ...) over row-major contiguous C[M, N].
/// The BLIS-style structure: B is packed once per (N-block, K-block) into
/// kNR-wide panels, A is packed per M-block into kMR-tall strips, and an
/// 8x32 register tile does the FLOPs in the widest flavor the CPU runs
/// (portable, AVX2 or AVX-512F; nn/gemm/gemm_kernel.h). Work is sharded
/// over rows of C on the shared ThreadPool; each output element is produced
/// by exactly one task in an order fixed by the tile alone, so results are
/// bit-identical for every thread count and every flavor.

/// C[M,N] += A[M,K] * B[K,N].
void GemmNN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim);

/// C[M,N] += A[M,K] * B[N,K]^T.
void GemmNT(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim);

/// C[M,N] += A[K,M]^T * B[K,N].
void GemmTN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim);

namespace reference {

/// Naive triple-loop versions of the kernels above, kept as the ground
/// truth for the property tests (tests/nn/gemm_test.cc). Serial,
/// unblocked, branch-free.
void GemmNN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim);
void GemmNT(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim);
void GemmTN(const float* a, const float* b, float* c, int m_dim, int k_dim,
            int n_dim);

}  // namespace reference

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_GEMM_H_
