// AVX2 text-CNN kernel flavor. This translation unit — and only this one of
// the conv flavors — is compiled with -mavx2; it must never be entered on a
// CPU without it (SelectKernel guarantees that via cpuid).
#define OMNIMATCH_CONV_NAMESPACE isa_avx2
#include "nn/gemm/text_conv_impl.inc"
