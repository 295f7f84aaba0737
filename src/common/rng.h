#ifndef OMNIMATCH_COMMON_RNG_H_
#define OMNIMATCH_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace omnimatch {

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Used to derive decorrelated seeds from structured inputs (config
/// fingerprints, user ids) — see AuxReviewGenerator::PerUserSeed and the
/// serve snapshot version digest, which both build on it.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic PCG32 random number generator.
///
/// Every stochastic component in the library (data generation, weight
/// initialization, dropout, auxiliary-review sampling) draws from an `Rng`
/// seeded explicitly, so experiments are reproducible bit-for-bit across
/// runs. We do not use <random> engines because their distributions are not
/// specified identically across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  /// Re-seeds the generator. The same seed always yields the same stream.
  void Seed(uint64_t seed);

  /// Uniform 32-bit value.
  uint32_t NextU32();

  /// Uniform in [0, n). Requires n > 0.
  uint32_t UniformU32(uint32_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int UniformInt(int lo, int hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform float in [lo, hi).
  float UniformFloat(float lo, float hi);

  /// Standard normal via Box-Muller (cached second value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  int SampleDiscrete(const std::vector<double>& weights);

  /// The draw SampleDiscrete(weights) makes, from `prefix`, the running
  /// sums of `weights` in index order (prefix[i] = prefix[i-1] + weights[i],
  /// starting from 0.0): one uniform, then a binary search for the first
  /// index whose sum exceeds it. Requires a positive last sum.
  int SampleCumulative(const std::vector<double>& prefix);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformU32(static_cast<uint32_t>(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Forks a child generator whose stream is decorrelated from the parent.
  /// Useful for giving each module its own stream while keeping a single
  /// top-level seed.
  Rng Fork();

  /// Complete serializable generator state. Restoring a captured state
  /// resumes the stream exactly where it was — including the cached
  /// Box-Muller value — which the checkpoint subsystem relies on for
  /// bit-identical resume.
  struct State {
    uint64_t state = 0;
    uint64_t inc = 0;
    uint8_t has_cached_normal = 0;
    double cached_normal = 0.0;
  };

  State GetState() const;
  void SetState(const State& state);

 private:
  uint64_t state_;
  uint64_t inc_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace omnimatch

#endif  // OMNIMATCH_COMMON_RNG_H_
