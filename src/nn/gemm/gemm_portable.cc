// Portable GEMM flavor, compiled with the project's default flags (the
// baseline vector unit: SSE2 on x86-64, NEON on aarch64). It is the
// fallback on every host and what OMNIMATCH_ISA=scalar selects.
// OMNIMATCH_GEMM_FORCE_PORTABLE keeps its width under a -march=native
// escape-hatch build, so forced dispatch always means what it says.
#define OMNIMATCH_GEMM_NAMESPACE isa_portable
#define OMNIMATCH_GEMM_FORCE_PORTABLE 1
#include "nn/gemm/gemm_impl.inc"
