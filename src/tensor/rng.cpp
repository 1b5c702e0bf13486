#include "tensor/rng.hpp"

#include <cmath>

namespace gnnbridge::tensor {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

float Rng::uniform(float lo, float hi) {
  return lo + static_cast<float>(uniform()) * (hi - lo);
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Lemire's multiply-shift rejection-free-enough method; bias is
  // negligible for n << 2^64 and determinism is what we actually need.
  const unsigned __int128 wide = static_cast<unsigned __int128>((*this)()) * n;
  return static_cast<std::uint64_t>(wide >> 64);
}

void fill_uniform(Matrix& m, Rng& rng, float lo, float hi) {
  float* p = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) p[i] = rng.uniform(lo, hi);
}

void fill_glorot(Matrix& m, Rng& rng) {
  const float a = std::sqrt(6.0f / static_cast<float>(m.rows() + m.cols()));
  fill_uniform(m, rng, -a, a);
}

}  // namespace gnnbridge::tensor
