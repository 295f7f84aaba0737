#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

namespace omnimatch {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextU32() != b.NextU32()) ++differing;
  }
  EXPECT_GT(differing, 24);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  std::vector<uint32_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.NextU32());
  a.Seed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.NextU32(), first[i]);
}

TEST(RngTest, UniformU32InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU32(17), 17u);
  }
}

TEST(RngTest, UniformU32CoversAllResidues) {
  Rng rng(5);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.UniformU32(8)];
  for (int c : counts) EXPECT_GT(c, 700);  // expected ~1000 each
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(21);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithMeanStddev) {
  Rng rng(22);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.SampleDiscrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.35);
}

TEST(RngTest, SampleCumulativeDrawsWhatSampleDiscreteDraws) {
  // Running sums formed in index order, zeroed weights (leading, inner and
  // trailing) included, and redone from a zeroed index on as the synthetic
  // generator does: the same stream must yield the same index every time.
  Rng weights_rng(5);
  std::vector<double> w(64);
  for (double& x : w) x = std::exp(weights_rng.Normal());
  w[0] = w[17] = w[63] = 0.0;
  std::vector<double> prefix(w.size());
  double sum = 0.0;
  for (size_t i = 0; i < w.size(); ++i) prefix[i] = sum += w[i];
  Rng a(23), b(23);
  for (int draw = 0; draw < 40; ++draw) {
    const int expected = a.SampleDiscrete(w);
    ASSERT_EQ(expected, b.SampleCumulative(prefix)) << "draw " << draw;
    ASSERT_GT(w[static_cast<size_t>(expected)], 0.0);
    w[static_cast<size_t>(expected)] = 0.0;
    sum = expected == 0 ? 0.0 : prefix[static_cast<size_t>(expected) - 1];
    for (size_t i = static_cast<size_t>(expected); i < w.size(); ++i) {
      prefix[i] = sum += w[i];
    }
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to match
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(99);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.NextU32() == child.NextU32()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

}  // namespace
}  // namespace omnimatch
