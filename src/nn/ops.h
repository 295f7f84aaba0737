#ifndef OMNIMATCH_NN_OPS_H_
#define OMNIMATCH_NN_OPS_H_

#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {

/// Differentiable functional ops. Each builds one node of the define-by-run
/// autograd graph. Shapes are validated with OM_CHECK (shape errors are
/// programmer errors, not runtime conditions).

/// Elementwise a + b. Shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a * b (Hadamard). Shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * scalar.
Tensor Scale(const Tensor& a, float s);

/// mat [B, N] + row [1, N] or [N], broadcast over rows (bias add).
Tensor AddRowBroadcast(const Tensor& mat, const Tensor& row);

/// max(0, x).
Tensor Relu(const Tensor& x);

/// x if x > 0 else slope * x (NGCF's activation).
Tensor LeakyRelu(const Tensor& x, float slope = 0.2f);

/// Same data viewed under a new shape (element count must match).
/// Copies on forward; gradient flows through element-wise.
Tensor Reshape(const Tensor& x, std::vector<int> new_shape);

/// Inverted dropout: zeroes each element with probability `p` and rescales
/// survivors by 1/(1-p). Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng);

/// Matrix product A[M,K] x B[K,N] -> [M,N].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// A[M,K] x B[N,K]^T -> [M,N]. Used for similarity matrices and attention.
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// Concatenates 2-D tensors with equal row counts along columns.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenates 2-D tensors with equal column counts along rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Row gather: table [V, E], ids in [0, V) -> [ids.size(), E].
/// Backward scatter-adds into the table (embedding lookup).
Tensor Gather(const Tensor& table, const std::vector<int>& ids);

/// Mean over rows: [R, C] -> [1, C].
Tensor MeanRows(const Tensor& x);

/// Row-wise sum: [R, C] -> [R, 1]. (Dot products via RowSum(Mul(a, b)).)
Tensor RowSum(const Tensor& x);

/// Mean over the middle axis of a 3-D tensor: [B, L, E] -> [B, E].
/// The bag-of-words mean of embedded documents.
Tensor MeanAxis1(const Tensor& x);

/// Row-wise softmax over the last axis of a 2-D tensor.
Tensor Softmax(const Tensor& x);

/// Sum of all elements -> scalar [1].
Tensor SumAll(const Tensor& x);

/// Mean of all elements -> scalar [1].
Tensor MeanAll(const Tensor& x);

/// Gradient Reversal Layer (Ganin & Lempitsky): identity in the forward
/// pass; multiplies the incoming gradient by -lambda in the backward pass.
/// The adversarial mechanism of the Domain Adversarial Training Module.
Tensor GradReverse(const Tensor& x, float lambda);

/// Fused text convolution + max-over-time pooling + ReLU over a filter
/// bank: the text CNN of the Feature Extraction Module.
///
/// `input` has shape [B, L, E] (a batch of token-embedded documents). Group
/// g of the bank is `weights[g]` [C, k_g*E], C filters spanning k_g
/// consecutive tokens (k_g is implied by the width), and `biases[g]` [C].
/// For each document the op computes
///   s_g[c, t] = <weights[g][c], input[t : t+k_g]>,
///   out[b, g*C + c] = ReLU(biases[g][c] + max_t s_g[c, t]),
/// which equals max-over-time of ReLU(conv) since ReLU is monotone. Requires
/// L >= every k_g and at most kMaxTextConvGroups groups. The kernel and its
/// numerics are described in nn/text_conv.h.
Tensor TextConvMaxPool(const Tensor& input, const std::vector<Tensor>& weights,
                       const std::vector<Tensor>& biases);

/// The single-kernel-size bank: `weight` [C, kernel_size*E], `bias` [C] ->
/// [B, C].
Tensor TextConvMaxPool(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, int kernel_size);

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_OPS_H_
