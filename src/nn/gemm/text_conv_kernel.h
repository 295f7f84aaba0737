#ifndef OMNIMATCH_NN_GEMM_TEXT_CONV_KERNEL_H_
#define OMNIMATCH_NN_GEMM_TEXT_CONV_KERNEL_H_

#include "common/cpu.h"
#include "nn/text_conv.h"

namespace omnimatch {
namespace nn {
namespace textconv {

/// Per-document forward of the text-CNN kernel (nn/text_conv.h), compiled
/// once per ISA flavor from text_conv_impl.inc with exactly that flavor's
/// arch flags plus -ffp-contract=off. Flavors differ only in vector width
/// and register tile; every one performs the same multiplies and adds in
/// the same order per output, so all of them are bit-identical.

/// Columns of the packed taps (and of P) are padded to this multiple, which
/// every flavor's register tile divides.
inline constexpr int kTapColumnAlign = 32;

/// Windows one P block covers; longer documents run several blocks.
inline constexpr int kTextConvRowBlock = 128;

/// One forward call's read-only state, shared by every document.
struct TapBank {
  const float* taps = nullptr;  // [embed, width], see nn/text_conv.h
  int width = 0;  // sum_g k_g * channels, padded to kTapColumnAlign
  int embed = 0;
  int channels = 0;
  int num_groups = 0;
  int min_kernel = 0;
  int max_kernel = 0;
  int kernel_size[kMaxTextConvGroups] = {};
  int tap_base[kMaxTextConvGroups] = {};  // first tap of group g
  const float* bias[kMaxTextConvGroups] = {};
};

/// Runs documents [doc_begin, doc_end) of x [*, length, embed] into out and
/// (when non-null) argmax, both [*, num_groups * channels]. `p` is the
/// calling thread's P block, min(length, kTextConvRowBlock + max_kernel - 1)
/// rows of `width` floats; `arg` holds num_groups * channels ints and
/// carries the running argmax when `argmax` is null.
using ForwardDocsFn = void (*)(const TapBank& bank, const float* x,
                               int length, int doc_begin, int doc_end,
                               float* p, int* arg, float* out, int* argmax);

/// The flavor for `level`: AVX2 (also on AVX-512 hosts) when this binary
/// compiled it, else the portable flavor, which always exists.
ForwardDocsFn SelectKernel(IsaLevel level);

/// TextConvMaxPoolForward with an explicit flavor (the per-ISA equivalence
/// test runs every flavor the host supports).
void ForwardWith(ForwardDocsFn kernel, const float* x,
                 const TextConvShape& shape, const TextConvGroup* groups,
                 float* out, int* argmax);

namespace isa_portable {
void ForwardDocs(const TapBank& bank, const float* x, int length,
                 int doc_begin, int doc_end, float* p, int* arg, float* out,
                 int* argmax);
}
#if defined(OMNIMATCH_HAVE_AVX2)
namespace isa_avx2 {
void ForwardDocs(const TapBank& bank, const float* x, int length,
                 int doc_begin, int doc_end, float* p, int* arg, float* out,
                 int* argmax);
}
#endif

}  // namespace textconv
}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_GEMM_TEXT_CONV_KERNEL_H_
