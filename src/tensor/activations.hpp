// Activation functions used by the GNN layer zoo (Tables 1 and 2 of the
// paper): ReLU (GCN), LeakyReLU (GAT edge weights), tanh (linear /
// gene-linear edge ops, LSTM) and sigmoid (LSTM gates).
#pragma once

#include "tensor/matrix.hpp"

namespace gnnbridge::tensor {

/// Elementwise max(x, 0), in place.
void relu_(Matrix& m);

/// Elementwise LeakyReLU with slope `alpha` for x < 0, in place.
/// GAT uses alpha = 0.2 (Velickovic et al. 2018).
void leaky_relu_(Matrix& m, float alpha = 0.2f);

/// Elementwise tanh, in place.
void tanh_(Matrix& m);

/// Elementwise logistic sigmoid, in place.
void sigmoid_(Matrix& m);

/// Returns a copy with ReLU applied.
Matrix relu(const Matrix& m);

/// Returns a copy with LeakyReLU applied.
Matrix leaky_relu(const Matrix& m, float alpha = 0.2f);

/// Returns a copy with sigmoid applied.
Matrix sigmoid(const Matrix& m);

/// Scalar LeakyReLU (used on edge weights stored as flat vectors).
inline float leaky_relu_scalar(float x, float alpha = 0.2f) {
  return x >= 0.0f ? x : alpha * x;
}

}  // namespace gnnbridge::tensor
