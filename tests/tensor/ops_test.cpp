#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "par/thread_pool.hpp"
#include "tensor/rng.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::tensor {
namespace {

using testing::same_bytes;

Matrix random(Index r, Index c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  fill_uniform(m, rng);
  return m;
}

/// Runs `check(at)` at 1, 2, 3, 4 and 8 host threads, `at` naming the
/// count for failure messages, and restores the default count.
template <typename Check>
void at_every_thread_count(Check&& check) {
  for (int threads : {1, 2, 3, 4, 8}) {
    par::set_max_threads(threads);
    check("at " + std::to_string(threads) + " threads");
  }
  par::set_max_threads(0);
}

/// A^T element by element: the ground truth for transpose.
Matrix transpose_ref(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

TEST(GemmRef, TinyHandComputed) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  Matrix c = gemm_ref(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Gemm, IdentityIsNoop) {
  Matrix a = random(5, 5, 1);
  Matrix eye(5, 5);
  for (Index i = 0; i < 5; ++i) eye(i, i) = 1.0f;
  EXPECT_TRUE(allclose(gemm(a, eye), a));
}

/// gemm must equal the reference byte for byte, at every thread count,
/// for shapes around 64-element tiles and at the edges of the micro-kernel:
/// m and n off the 4-row and 8-column blocks, k past the 256-deep k-tile,
/// m below and between multiples of the 16-row task grain, and empty
/// dimensions.
class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, BlockedMatchesReference) {
  auto [m, k, n] = GetParam();
  Matrix a = random(m, k, 10 + static_cast<std::uint64_t>(m));
  Matrix b = random(k, n, 20 + static_cast<std::uint64_t>(n));
  const Matrix ref = gemm_ref(a, b);
  at_every_thread_count([&](const std::string& at) {
    EXPECT_TRUE(same_bytes(gemm(a, b), ref)) << "m=" << m << " k=" << k << " n=" << n << " " << at;
  });
}

INSTANTIATE_TEST_SUITE_P(TileBoundaries, GemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{63, 64, 65},
                                           std::tuple{64, 64, 64}, std::tuple{65, 63, 64},
                                           std::tuple{128, 32, 16}, std::tuple{7, 129, 5},
                                           std::tuple{100, 100, 100}, std::tuple{1, 200, 3}));

INSTANTIATE_TEST_SUITE_P(
    KernelEdges, GemmShapes,
    ::testing::Values(
        // m and n off the 4x8 register block.
        std::tuple{6, 9, 13}, std::tuple{3, 5, 7}, std::tuple{18, 11, 12},
        // k past one and two k-tiles.
        std::tuple{9, 257, 17}, std::tuple{5, 600, 8}, std::tuple{33, 513, 24},
        // m below the row grain, and between multiples of it.
        std::tuple{15, 40, 16}, std::tuple{17, 30, 16}, std::tuple{47, 20, 40},
        // Empty dimensions.
        std::tuple{0, 5, 3}, std::tuple{4, 0, 6}, std::tuple{5, 7, 0}));

/// Products that are all -0.0 sum to +0.0 in gemm_ref, whose sums start at
/// +0.0f; a sum seeded with its first product would keep the -0.0. The
/// shape reaches the 4x8 kernel, both scalar edges and a second k-tile.
TEST(Gemm, NegativeZeroProductsSumToPositiveZero) {
  const Index m = 6, k = 300, n = 11;
  Matrix a(m, k), b(k, n);
  a.fill(-0.0f);
  b.fill(1.0f);
  for (Index p = 0; p < k; p += 2) {
    for (Index i = 0; i < m; ++i) a(i, p) = 0.0f;
    for (Index j = 0; j < n; ++j) b(p, j) = -1.0f;
  }
  const Matrix ref = gemm_ref(a, b);
  for (Index i = 0; i < ref.size(); ++i) ASSERT_FALSE(std::signbit(ref.data()[i])) << i;
  at_every_thread_count([&](const std::string& at) {
    EXPECT_TRUE(same_bytes(gemm(a, b), ref)) << at;
    EXPECT_TRUE(same_bytes(gemm_nt(a, transpose(b)), ref)) << at;
  });
}

TEST(GemmNt, MatchesExplicitTranspose) {
  Matrix a = random(13, 7, 3);
  Matrix b = random(11, 7, 4);
  Matrix a_long = random(21, 300, 5);
  Matrix b_long = random(19, 300, 6);
  const Matrix ref = gemm_ref(a, transpose_ref(b));
  const Matrix ref_long = gemm_ref(a_long, transpose_ref(b_long));
  at_every_thread_count([&](const std::string& at) {
    EXPECT_TRUE(same_bytes(gemm_nt(a, b), ref)) << at;
    EXPECT_TRUE(same_bytes(gemm_nt(a_long, b_long), ref_long)) << at;
  });
}

TEST(Transpose, Involution) {
  Matrix a = random(9, 17, 5);
  at_every_thread_count(
      [&](const std::string& at) { EXPECT_TRUE(same_bytes(transpose(transpose(a)), a)) << at; });
}

/// Shapes around the 32x32 tile and the 32-row task band, including a
/// signed zero, which a copy must keep.
TEST(Transpose, MatchesElementwiseAroundTheTile) {
  const std::pair<Index, Index> shapes[] = {{33, 65}, {64, 31}, {100, 1}, {1, 70}, {0, 5}, {5, 0}};
  for (auto [m, n] : shapes) {
    Matrix a = random(m, n, 7 + static_cast<std::uint64_t>(m));
    if (a.size() > 0) a.data()[0] = -0.0f;
    const Matrix ref = transpose_ref(a);
    at_every_thread_count([&](const std::string& at) {
      EXPECT_TRUE(same_bytes(transpose(a), ref)) << m << "x" << n << " " << at;
    });
  }
}

TEST(Axpy, AccumulatesScaled) {
  Matrix a(1, 2, {1, 1});
  Matrix b(1, 2, {2, 4});
  axpy(a, 0.5f, b);
  EXPECT_EQ(a, Matrix(1, 2, {2, 3}));
}

TEST(Dot, MatchesManual) {
  const std::vector<float> a{1, 2, 3};
  const std::vector<float> b{4, 5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(FrobeniusNorm, KnownValue) {
  Matrix m(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(frobenius_norm(m), 5.0f);
}

}  // namespace
}  // namespace gnnbridge::tensor
