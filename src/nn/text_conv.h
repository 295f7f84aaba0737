#ifndef OMNIMATCH_NN_TEXT_CONV_H_
#define OMNIMATCH_NN_TEXT_CONV_H_

#include <vector>

namespace omnimatch {
namespace nn {

/// The text-CNN kernel of the Feature Extraction Module: convolution over a
/// bank of kernel sizes, max-over-time pooling, bias and ReLU, on raw
/// pointers. The eager op TextConvMaxPool (nn/ops.h) and the recorded-graph
/// node kTextConvMaxPool both call these two functions, so replay equals
/// eager by construction (DESIGN.md "Text CNN kernel").
///
/// Forward uses a tap decomposition. The bank's filters are repacked once
/// per call into W_taps[E, sum_g k_g * C], column (tap_base_g + j) * C + c
/// holding tap j of filter c of kernel size g. Each document runs one GEMM
///   P[t, col] = sum_e x[t, e] * W_taps[e, col]        (e ascending)
/// and a streaming epilogue per kernel size
///   s_g[t, c] = P[t, tap(g,0,c)] + P[t+1, tap(g,1,c)] + ...  (j ascending)
///   out[b, g*C + c] = ReLU(bias_g[c] + max_t s_g[t, c])
/// where the first t wins ties. The [windows x C] score matrix is never
/// built. Every output is produced by one fixed sequence of IEEE multiplies
/// and adds (no fused multiply-add), so results are bit-identical for every
/// thread count and every ISA flavor of the kernel.
///
/// Workspace: one per-thread block of P, at most 128 + max k - 1 rows of
/// sum_g k_g * C floats, reused across calls; it does not depend on the
/// batch size.

/// Most kernel sizes one filter bank may hold (the paper uses three).
inline constexpr int kMaxTextConvGroups = 8;

/// One kernel size of a filter bank.
struct TextConvGroup {
  int kernel_size = 0;
  /// [channels, kernel_size * embed]: tap j of filter c is
  /// weight[c, j*embed : (j+1)*embed].
  const float* weight = nullptr;
  const float* bias = nullptr;  // [channels]
  /// Backward only: gradients accumulated into (null: not wanted).
  float* weight_grad = nullptr;
  float* bias_grad = nullptr;
};

/// `batch` documents of `length` tokens embedded in `embed` dimensions, and
/// `channels` filters for each of the `num_groups` kernel sizes.
struct TextConvShape {
  int batch = 0;
  int length = 0;
  int embed = 0;
  int channels = 0;
  int num_groups = 0;
};

/// What the backward pass needs of the forward: the pooled window of every
/// output, [batch, num_groups * channels].
struct TextConvWorkspace {
  std::vector<int> argmax;
  void Size(const TextConvShape& shape);
};

/// x [batch, length, embed] -> out [batch, num_groups * channels], group g
/// in columns [g*C, (g+1)*C). `ws` (null: no backward will run) is sized
/// and receives the argmax windows. Every kernel size must be at most
/// `length`.
void TextConvMaxPoolForward(const float* x, const TextConvShape& shape,
                            const TextConvGroup* groups, float* out,
                            TextConvWorkspace* ws);

/// Argmax-sparse backward: an output contributes only when its gradient is
/// nonzero and it passed the ReLU. Accumulates into dx (null: not wanted)
/// and each group's weight_grad / bias_grad. Documents own their dx rows
/// and filters own their weight/bias rows, and each walks the other axis
/// in ascending order, so gradients are bit-identical for every thread
/// count.
void TextConvMaxPoolBackward(const float* x, const TextConvShape& shape,
                             const TextConvGroup* groups, const float* out,
                             const float* dout, const TextConvWorkspace& ws,
                             float* dx);

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_TEXT_CONV_H_
