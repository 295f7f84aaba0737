#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "nn/gemm/gemm_kernel.h"

namespace omnimatch {
namespace nn {
namespace {

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

/// The blocked kernels must match the naive reference within float
/// round-off on every shape, including degenerate and off-tile ones.
const int kDims[] = {1, 3, 17, 64, 65};

float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(GemmTest, NNMatchesReferenceOnAllShapes) {
  Rng rng(11);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
        std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
        // Accumulation contract: C += A*B on top of existing contents.
        std::vector<float> c0 = RandomVec(static_cast<size_t>(m) * n, &rng);
        std::vector<float> want = c0, got = c0;
        reference::GemmNN(a.data(), b.data(), want.data(), m, k, n);
        GemmNN(a.data(), b.data(), got.data(), m, k, n);
        EXPECT_LE(MaxAbsDiff(want, got), 1e-4f)
            << "shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(GemmTest, NTMatchesReferenceOnAllShapes) {
  Rng rng(12);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
        std::vector<float> b = RandomVec(static_cast<size_t>(n) * k, &rng);
        std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
        std::vector<float> got = want;
        reference::GemmNT(a.data(), b.data(), want.data(), m, k, n);
        GemmNT(a.data(), b.data(), got.data(), m, k, n);
        EXPECT_LE(MaxAbsDiff(want, got), 1e-4f)
            << "shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(GemmTest, TNMatchesReferenceOnAllShapes) {
  Rng rng(13);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        std::vector<float> a = RandomVec(static_cast<size_t>(k) * m, &rng);
        std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
        std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
        std::vector<float> got = want;
        reference::GemmTN(a.data(), b.data(), want.data(), m, k, n);
        GemmTN(a.data(), b.data(), got.data(), m, k, n);
        EXPECT_LE(MaxAbsDiff(want, got), 1e-4f)
            << "shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(GemmTest, BitIdenticalAcrossThreadCounts) {
  // The substrate's core guarantee: the pool size never changes a single
  // bit of the output. Off-tile on every axis, and square on-tile shapes.
  Rng rng(15);
  struct Shape {
    int m, k, n;
  };
  int before = GetNumThreads();
  for (Shape s : {Shape{173, 301, 129}, Shape{64, 64, 64},
                  Shape{128, 128, 128}, Shape{256, 256, 256}}) {
    std::vector<float> a = RandomVec(static_cast<size_t>(s.m) * s.k, &rng);
    std::vector<float> b = RandomVec(static_cast<size_t>(s.k) * s.n, &rng);
    std::vector<float> golden;
    for (int threads : {1, 2, 3, 4, 8}) {
      SetNumThreads(threads);
      std::vector<float> c(static_cast<size_t>(s.m) * s.n, 0.0f);
      GemmNN(a.data(), b.data(), c.data(), s.m, s.k, s.n);
      if (golden.empty()) {
        golden = c;
      } else {
        ASSERT_EQ(golden, c) << "GemmNN " << s.m << "x" << s.k << "x" << s.n
                             << " differs at " << threads << " threads";
      }
    }
  }
  SetNumThreads(before);
}

TEST(GemmTest, LargeKAccumulatesInBlockOrder) {
  // K spans multiple kKC blocks; verify against the reference within
  // round-off (the blocked kernel sums K in ascending block order).
  Rng rng(16);
  int m = 9, k = 700, n = 33;
  std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
  std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
  std::vector<float> got = want;
  reference::GemmNN(a.data(), b.data(), want.data(), m, k, n);
  GemmNN(a.data(), b.data(), got.data(), m, k, n);
  EXPECT_LE(MaxAbsDiff(want, got), 5e-4f);
}

/// Runs `run(kernel, c)` on a copy of `c0` for every flavor the host
/// supports (levels the binary did not compile fall back to a lower flavor
/// inside SelectKernel), at 1 and 4 threads, and requires every result to
/// equal the portable flavor's at 1 thread bit for bit.
template <typename Run>
::testing::AssertionResult FlavorsBitIdentical(const std::vector<float>& c0,
                                               Run run) {
  const int before = GetNumThreads();
  std::vector<float> base;
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (int level = 0; level <= static_cast<int>(DetectedIsa()); ++level) {
      std::vector<float> c = c0;
      run(gemm::SelectKernel(static_cast<IsaLevel>(level)), c.data());
      if (base.empty()) {
        base = c;
      } else if (base != c) {
        result = ::testing::AssertionFailure()
                 << IsaName(static_cast<IsaLevel>(level)) << " at "
                 << threads << " threads";
        break;
      }
    }
    if (!result) break;
  }
  SetNumThreads(before);
  return result;
}

struct GemmShape {
  int m, k, n;
};

std::vector<GemmShape> FlavorShapes() {
  std::vector<GemmShape> shapes;
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) shapes.push_back({m, k, n});
    }
  }
  // K across kKC blocks; with 130 rows the row chunks shard over threads,
  // and 545 columns cross a kNC block and end in an edge panel.
  shapes.push_back({9, 700, 33});
  shapes.push_back({130, 700, 545});
  return shapes;
}

TEST(GemmTest, EveryIsaFlavorIsBitIdentical) {
  Rng rng(17);
  for (const GemmShape& s : FlavorShapes()) {
    std::vector<float> a = RandomVec(static_cast<size_t>(s.m) * s.k, &rng);
    std::vector<float> b = RandomVec(static_cast<size_t>(s.k) * s.n, &rng);
    std::vector<float> c0 = RandomVec(static_cast<size_t>(s.m) * s.n, &rng);
    for (gemm::Layout layout :
         {gemm::Layout::kNN, gemm::Layout::kNT, gemm::Layout::kTN}) {
      ASSERT_TRUE(FlavorsBitIdentical(
          c0, [&](const gemm::Kernel& kernel, float* c) {
            gemm::GemmWith(kernel, layout, a.data(), b.data(), c, s.m, s.k,
                           s.n);
          }))
          << "layout " << static_cast<int>(layout) << ", shape " << s.m
          << "x" << s.k << "x" << s.n;
    }
  }
}

TEST(GemmTest, FusedLinearEveryIsaFlavorIsBitIdentical) {
  Rng rng(18);
  for (const GemmShape& s : FlavorShapes()) {
    std::vector<float> a = RandomVec(static_cast<size_t>(s.m) * s.k, &rng);
    std::vector<float> b = RandomVec(static_cast<size_t>(s.k) * s.n, &rng);
    std::vector<float> bias = RandomVec(static_cast<size_t>(s.n), &rng);
    // Nonzero initial C: the fused kernel must overwrite it.
    std::vector<float> c0 = RandomVec(static_cast<size_t>(s.m) * s.n, &rng);
    for (bool relu : {false, true}) {
      ASSERT_TRUE(FlavorsBitIdentical(
          c0, [&](const gemm::Kernel& kernel, float* c) {
            gemm::FusedLinearForwardWith(kernel, a.data(), b.data(),
                                         bias.data(), c, s.m, s.k, s.n,
                                         relu);
          }))
          << "relu " << relu << ", shape " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

// The two suites below first pinned the int8 head's dispatch and epilogue.
// That head is gone; the same contracts hold for the float kernels, so the
// tests keep their names and check the float path.

TEST(Int8GemmTest, SelectKernelClampsAboveBestCompiled) {
  // Asking for a flavor the build does not carry must fall back to the
  // widest compiled one, never to a wider-than-compiled path.
  const gemm::Kernel* widest = &gemm::isa_portable::kKernel;
#if defined(OMNIMATCH_HAVE_AVX2)
  widest = &gemm::isa_avx2::kKernel;
#endif
#if defined(OMNIMATCH_HAVE_AVX512)
  widest = &gemm::isa_avx512::kKernel;
#endif
  EXPECT_EQ(&gemm::SelectKernel(IsaLevel::kAvx512), widest);
  // Levels with no float flavor of their own run the portable one.
  EXPECT_EQ(&gemm::SelectKernel(IsaLevel::kScalar),
            &gemm::isa_portable::kKernel);
  EXPECT_EQ(&gemm::SelectKernel(IsaLevel::kNeon),
            &gemm::isa_portable::kKernel);
}

TEST(QuantizedLinearTest, ReluEpilogueMatchesFloatSemantics) {
  // A pre-activation that is exactly zero or negative must produce +0.0f
  // under ReLU.
  for (float x : {0.0f, -1.0f}) {
    const float w = 1.0f;
    const float b = 0.0f;
    float y = -1.0f;
    FusedLinearForward(&x, &w, &b, &y, 1, 1, 1, /*relu=*/true);
    EXPECT_EQ(y, 0.0f) << "x = " << x;
    EXPECT_FALSE(std::signbit(y)) << "x = " << x;
  }
  // On a real shape the fused epilogue equals GemmNN onto zeros, then
  // `v = c + bias; v > 0 ? v : 0`, bit for bit.
  Rng rng(19);
  const int m = 37, k = 65, n = 45;
  std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
  std::vector<float> bias = RandomVec(static_cast<size_t>(n), &rng);
  std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
  GemmNN(a.data(), b.data(), want.data(), m, k, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& v = want[static_cast<size_t>(i) * n + j];
      v += bias[j];
      v = v > 0.0f ? v : 0.0f;
    }
  }
  std::vector<float> got = RandomVec(want.size(), &rng);
  FusedLinearForward(a.data(), b.data(), bias.data(), got.data(), m, k, n,
                     /*relu=*/true);
  EXPECT_EQ(want, got);
}

}  // namespace
}  // namespace nn
}  // namespace omnimatch
