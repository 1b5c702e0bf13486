#include "rt/retry.hpp"

#include <algorithm>
#include <cstdint>

namespace gnnbridge::rt {

namespace {

constexpr std::uint64_t kJitterSeed = 0x6e6e62726964ull;  // "nnbrid"

/// splitmix64: a tiny, well-mixed pure hash — the jitter must be a
/// deterministic function of the attempt, never of a global RNG.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double backoff_cycles(int attempt) {
  if (attempt < 1) attempt = 1;
  double delay = kBaseBackoffCycles;
  for (int i = 1; i < attempt && delay < kMaxBackoffCycles; ++i) {
    delay *= kBackoffMultiplier;
  }
  delay = std::min(delay, kMaxBackoffCycles);
  // Jitter in [0.5, 1.0), reproducible.
  const std::uint64_t h = splitmix64(kJitterSeed ^ static_cast<std::uint64_t>(attempt));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return delay * (0.5 + unit * 0.5);
}

}  // namespace gnnbridge::rt
