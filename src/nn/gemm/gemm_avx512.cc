// AVX-512F GEMM flavor. This translation unit is compiled with -mavx512f;
// it must never be entered on a CPU without it (SelectKernel guarantees
// that via cpuid).
#define OMNIMATCH_GEMM_NAMESPACE isa_avx512
#include "nn/gemm/gemm_impl.inc"
