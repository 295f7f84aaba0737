#include "common/cpu.h"

#include <cstdlib>

#include "common/logging.h"

namespace omnimatch {

const char* IsaName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar: return "scalar";
    case IsaLevel::kNeon: return "neon";
    case IsaLevel::kAvx2: return "avx2";
    case IsaLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

bool ParseIsaName(const std::string& name, IsaLevel* out) {
  if (name == "scalar") { *out = IsaLevel::kScalar; return true; }
  if (name == "neon") { *out = IsaLevel::kNeon; return true; }
  if (name == "avx2") { *out = IsaLevel::kAvx2; return true; }
  if (name == "avx512") { *out = IsaLevel::kAvx512; return true; }
  return false;
}

namespace {

IsaLevel ProbeHardware() {
#if defined(__aarch64__)
  // NEON (ASIMD) is architecturally mandatory on aarch64.
  return IsaLevel::kNeon;
#elif defined(__x86_64__) || defined(_M_X64)
  // __builtin_cpu_supports executes cpuid once and caches (GCC and Clang);
  // it checks the OS-enabled state too (XGETBV), not just the CPU bit, so a
  // "yes" means the instructions are actually executable.
  if (__builtin_cpu_supports("avx512f")) return IsaLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
  return IsaLevel::kScalar;
#else
  return IsaLevel::kScalar;
#endif
}

}  // namespace

namespace internal {

IsaLevel ResolveIsa(const char* env_value, IsaLevel detected) {
  if (env_value == nullptr || env_value[0] == '\0') return detected;
  IsaLevel requested;
  if (!ParseIsaName(env_value, &requested)) {
    OM_LOG(Warning) << "OMNIMATCH_ISA='" << env_value
                    << "' is not one of scalar/neon/avx2/avx512; using "
                    << IsaName(detected);
    return detected;
  }
  if (static_cast<int>(requested) > static_cast<int>(detected)) {
    OM_LOG(Warning) << "OMNIMATCH_ISA=" << env_value
                    << " exceeds what this CPU supports; clamping to "
                    << IsaName(detected);
    return detected;
  }
  // NEON and the x86 levels never coexist: requesting neon on x86 (or
  // avx2 on aarch64 — caught by the clamp above) falls back to scalar.
  if (requested == IsaLevel::kNeon && detected != IsaLevel::kNeon) {
    OM_LOG(Warning) << "OMNIMATCH_ISA=neon on a non-aarch64 host; using "
                       "scalar";
    return IsaLevel::kScalar;
  }
  return requested;
}

}  // namespace internal

IsaLevel DetectedIsa() {
  static const IsaLevel level = ProbeHardware();
  return level;
}

IsaLevel ActiveIsa() {
  static const IsaLevel level =
      internal::ResolveIsa(std::getenv("OMNIMATCH_ISA"), DetectedIsa());
  return level;
}

}  // namespace omnimatch
