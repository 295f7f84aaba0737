#ifndef OMNIMATCH_COMMON_CPU_H_
#define OMNIMATCH_COMMON_CPU_H_

#include <string>

namespace omnimatch {

/// Runtime CPU-feature detection backing the per-ISA kernel dispatch of
/// the float GEMM and the text-CNN kernel (src/nn/gemm/). The build
/// compiles every kernel flavor the *compiler* supports into dedicated
/// translation units with scoped arch flags; which flavor actually runs is
/// decided here, once, at startup — so one portable binary runs everywhere
/// and still uses the widest vector unit the host has. This replaces the old global `-march=native` story,
/// where a binary built on a new machine would SIGILL on an older one.
///
/// Levels are ordered: a CPU reporting a level supports every lower level
/// too (kNeon is the aarch64 baseline and never coexists with the x86
/// levels). Dispatch therefore clamps, never jumps.
enum class IsaLevel {
  kScalar = 0,  // the portable flavors, every target
  kNeon = 1,    // aarch64 baseline SIMD
  kAvx2 = 2,    // x86-64 AVX2 (FMA not required: no kernel fuses mul-add)
  kAvx512 = 3,  // x86-64 AVX-512F
};

/// Lower-case stable name ("scalar", "neon", "avx2", "avx512") — used in
/// logs, test messages and the OMNIMATCH_ISA override.
const char* IsaName(IsaLevel level);

/// Parses IsaName() output. Returns false on an unknown name.
bool ParseIsaName(const std::string& name, IsaLevel* out);

/// The widest level the *hardware* supports, probed via cpuid (x86) or the
/// target architecture (aarch64). Pure hardware fact, never affected by the
/// environment override. Cached after the first call; thread-safe.
IsaLevel DetectedIsa();

/// The level dispatch should use: DetectedIsa() unless the OMNIMATCH_ISA
/// environment variable names a *lower* level (forcing, e.g., the portable
/// kernels in the portable CI lane). Asking for a level the hardware does
/// not support clamps to DetectedIsa() with a warning — running it would
/// SIGILL, which is exactly the bug this layer exists to prevent. An
/// unparseable value is ignored with a warning. Cached after the first
/// call; thread-safe.
IsaLevel ActiveIsa();

namespace internal {
/// Uncached env-override resolution against a given detected level —
/// exposed so tests can exercise the clamp logic without forking.
IsaLevel ResolveIsa(const char* env_value, IsaLevel detected);
}  // namespace internal

}  // namespace omnimatch

#endif  // OMNIMATCH_COMMON_CPU_H_
