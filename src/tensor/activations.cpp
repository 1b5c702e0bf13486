#include "tensor/activations.hpp"

#include <cmath>

namespace gnnbridge::tensor {

namespace {
template <typename F>
void apply_(Matrix& m, F f) {
  float* p = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) p[i] = f(p[i]);
}
}  // namespace

void relu_(Matrix& m) {
  apply_(m, [](float x) { return x > 0.0f ? x : 0.0f; });
}

void leaky_relu_(Matrix& m, float alpha) {
  apply_(m, [alpha](float x) { return x >= 0.0f ? x : alpha * x; });
}

void tanh_(Matrix& m) {
  apply_(m, [](float x) { return std::tanh(x); });
}

void sigmoid_(Matrix& m) {
  apply_(m, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Matrix relu(const Matrix& m) {
  Matrix out = m;
  relu_(out);
  return out;
}

Matrix leaky_relu(const Matrix& m, float alpha) {
  Matrix out = m;
  leaky_relu_(out, alpha);
  return out;
}

Matrix sigmoid(const Matrix& m) {
  Matrix out = m;
  sigmoid_(out);
  return out;
}

}  // namespace gnnbridge::tensor
