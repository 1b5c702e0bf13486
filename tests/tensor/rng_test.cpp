#include "tensor/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gnnbridge::tensor {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-3.0f, 5.0f);
    EXPECT_GE(v, -3.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(19);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) counts[rng.below(5)]++;
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Splitmix, AdvancesState) {
  std::uint64_t s = 1;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(FillGlorot, BoundsMatchFanInOut) {
  Rng rng(29);
  Matrix m(10, 30);
  fill_glorot(m, rng);
  const float bound = std::sqrt(6.0f / (10 + 30));
  for (Index i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), bound);
  }
}

TEST(FillUniform, Deterministic) {
  Rng a(5), b(5);
  Matrix m1(4, 4), m2(4, 4);
  fill_uniform(m1, a);
  fill_uniform(m2, b);
  EXPECT_EQ(m1, m2);
}

}  // namespace
}  // namespace gnnbridge::tensor
