// AVX2 GEMM flavor. This translation unit is compiled with -mavx2; it must
// never be entered on a CPU without it (SelectKernel guarantees that via
// cpuid).
#define OMNIMATCH_GEMM_NAMESPACE isa_avx2
#include "nn/gemm/gemm_impl.inc"
