#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"

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
  // bit of the output.
  Rng rng(15);
  int m = 173, k = 301, n = 129;  // off-tile on every axis
  std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
  int before = GetNumThreads();
  std::vector<float> golden;
  for (int threads : {1, 2, 3, 4, 8}) {
    SetNumThreads(threads);
    std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
    GemmNN(a.data(), b.data(), c.data(), m, k, n);
    if (golden.empty()) {
      golden = c;
    } else {
      ASSERT_EQ(golden, c) << "GemmNN differs at " << threads << " threads";
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

}  // namespace
}  // namespace nn
}  // namespace omnimatch
