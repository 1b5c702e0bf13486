#include "tensor/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gnnbridge::tensor {
namespace {

TEST(Relu, ClampsNegatives) {
  Matrix m(1, 4, {-2, -0.5f, 0, 3});
  relu_(m);
  EXPECT_EQ(m, Matrix(1, 4, {0, 0, 0, 3}));
}

TEST(LeakyRelu, ScalesNegatives) {
  Matrix m(1, 3, {-1, 0, 2});
  leaky_relu_(m, 0.2f);
  EXPECT_FLOAT_EQ(m(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(m(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 2), 2.0f);
}

TEST(LeakyReluScalar, MatchesMatrixVersion) {
  EXPECT_FLOAT_EQ(leaky_relu_scalar(-2.0f, 0.1f), -0.2f);
  EXPECT_FLOAT_EQ(leaky_relu_scalar(5.0f, 0.1f), 5.0f);
}

TEST(Tanh, MatchesStd) {
  Matrix m(1, 3, {-1, 0, 1});
  tanh_(m);
  EXPECT_FLOAT_EQ(m(0, 0), std::tanh(-1.0f));
  EXPECT_FLOAT_EQ(m(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 2), std::tanh(1.0f));
}

TEST(Sigmoid, SymmetricAroundHalf) {
  Matrix m(1, 2, {-3, 3});
  sigmoid_(m);
  EXPECT_NEAR(m(0, 0) + m(0, 1), 1.0f, 1e-6f);
  EXPECT_LT(m(0, 0), 0.5f);
}

TEST(CopyingVariants, LeaveInputUntouched) {
  const Matrix m(1, 2, {-1, 1});
  const Matrix r = relu(m);
  const Matrix l = leaky_relu(m);
  const Matrix s = sigmoid(m);
  EXPECT_EQ(m, Matrix(1, 2, {-1, 1}));
  EXPECT_FLOAT_EQ(r(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(l(0, 0), -0.2f);
  EXPECT_GT(s(0, 1), 0.5f);
}

}  // namespace
}  // namespace gnnbridge::tensor
