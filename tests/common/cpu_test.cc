#include "common/cpu.h"

#include <gtest/gtest.h>

namespace omnimatch {
namespace {

TEST(CpuDispatchTest, ResolveIsaHonorsAndClampsOverride) {
  using internal::ResolveIsa;
  // No override: the detected level stands.
  EXPECT_EQ(ResolveIsa(nullptr, IsaLevel::kAvx512), IsaLevel::kAvx512);
  EXPECT_EQ(ResolveIsa("", IsaLevel::kAvx2), IsaLevel::kAvx2);
  // Forcing DOWN is allowed (portable CI lane).
  EXPECT_EQ(ResolveIsa("scalar", IsaLevel::kAvx512), IsaLevel::kScalar);
  EXPECT_EQ(ResolveIsa("avx2", IsaLevel::kAvx512), IsaLevel::kAvx2);
  // Forcing UP would SIGILL: clamps to detected.
  EXPECT_EQ(ResolveIsa("avx512", IsaLevel::kScalar), IsaLevel::kScalar);
  EXPECT_EQ(ResolveIsa("avx2", IsaLevel::kScalar), IsaLevel::kScalar);
  // Cross-family request degrades to scalar, not to an x86 level.
  EXPECT_EQ(ResolveIsa("neon", IsaLevel::kAvx512), IsaLevel::kScalar);
  // Garbage is ignored.
  EXPECT_EQ(ResolveIsa("pentium", IsaLevel::kAvx2), IsaLevel::kAvx2);
}

TEST(CpuDispatchTest, IsaNamesRoundTrip) {
  for (IsaLevel l : {IsaLevel::kScalar, IsaLevel::kNeon, IsaLevel::kAvx2,
                     IsaLevel::kAvx512}) {
    IsaLevel parsed;
    ASSERT_TRUE(ParseIsaName(IsaName(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  IsaLevel unused;
  EXPECT_FALSE(ParseIsaName("sse9", &unused));
}

}  // namespace
}  // namespace omnimatch
