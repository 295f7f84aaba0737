#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace omnimatch {

void Rng::Seed(uint64_t seed) {
  // PCG32 seeding procedure (O'Neill): fixed odd increment, one warm-up step.
  state_ = 0;
  inc_ = (seed << 1u) | 1u;
  NextU32();
  state_ += 0x853c49e6748fea9bULL + seed;
  NextU32();
  has_cached_normal_ = false;
}

uint32_t Rng::NextU32() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint32_t Rng::UniformU32(uint32_t n) {
  OM_CHECK_GT(n, 0u);
  // Lemire-style rejection to avoid modulo bias.
  uint32_t threshold = (0u - n) % n;
  for (;;) {
    uint32_t r = NextU32();
    if (r >= threshold) return r % n;
  }
}

int Rng::UniformInt(int lo, int hi) {
  OM_CHECK_LE(lo, hi);
  return lo + static_cast<int>(
                  UniformU32(static_cast<uint32_t>(hi - lo) + 1u));
}

double Rng::UniformDouble() {
  // 32 bits of entropy is plenty for simulation sampling.
  return NextU32() * (1.0 / 4294967296.0);
}

float Rng::UniformFloat(float lo, float hi) {
  return lo + static_cast<float>(UniformDouble()) * (hi - lo);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 1e-12);
  double u2 = UniformDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

int Rng::SampleDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    OM_CHECK_GE(w, 0.0);
    total += w;
  }
  OM_CHECK_GT(total, 0.0) << "SampleDiscrete needs a positive weight";
  double u = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

int Rng::SampleCumulative(const std::vector<double>& prefix) {
  OM_CHECK(!prefix.empty() && prefix.back() > 0.0)
      << "SampleCumulative needs a positive total";
  const double u = UniformDouble() * prefix.back();
  const size_t i = static_cast<size_t>(
      std::upper_bound(prefix.begin(), prefix.end(), u) - prefix.begin());
  return static_cast<int>(std::min(i, prefix.size() - 1));
}

Rng::State Rng::GetState() const {
  State s;
  s.state = state_;
  s.inc = inc_;
  s.has_cached_normal = has_cached_normal_ ? 1 : 0;
  s.cached_normal = cached_normal_;
  return s;
}

void Rng::SetState(const State& state) {
  state_ = state.state;
  inc_ = state.inc;
  has_cached_normal_ = state.has_cached_normal != 0;
  cached_normal_ = state.cached_normal;
}

Rng Rng::Fork() {
  uint64_t child_seed =
      (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
  return Rng(child_seed);
}

}  // namespace omnimatch
