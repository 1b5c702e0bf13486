// Deterministic pseudo-random number generation.
//
// Everything in this repository — dataset generation, weight initialization,
// tuner sampling — must be reproducible from a single seed so that the
// benchmark harness regenerates identical tables on every run. We use
// xoshiro256** (public-domain, Blackman & Vigna) seeded through SplitMix64,
// rather than std::mt19937, for speed and cross-platform determinism.
#pragma once

#include <cstdint>

#include "tensor/matrix.hpp"

namespace gnnbridge::tensor {

/// SplitMix64 step: used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t s_[4];
};

/// Fills `m` with uniform values in [lo, hi).
void fill_uniform(Matrix& m, Rng& rng, float lo = -1.0f, float hi = 1.0f);

/// Fills `m` with Glorot/Xavier-uniform values: U(-a, a) with
/// a = sqrt(6 / (fan_in + fan_out)) — the initialization GNN layers use.
void fill_glorot(Matrix& m, Rng& rng);

}  // namespace gnnbridge::tensor
