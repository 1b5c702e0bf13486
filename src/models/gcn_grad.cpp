#include "models/gcn_grad.hpp"

#include <cassert>

#include "models/layers.hpp"
#include "tensor/activations.hpp"
#include "tensor/ops.hpp"

namespace gnnbridge::models {

GcnForwardCache gcn_forward_cached(const Csr& g, const Matrix& x,
                                   [[maybe_unused]] const GcnConfig& cfg,
                                   const GcnParams& params) {
  assert(x.cols() == cfg.dims.front());
  const std::vector<float> norm = gcn_edge_norm(g);
  GcnForwardCache cache;
  cache.inputs.push_back(x);
  for (std::size_t l = 0; l < params.weight.size(); ++l) {
    const bool last = l + 1 == params.weight.size();
    Matrix t = tensor::gemm(cache.inputs.back(), params.weight[l]);
    Matrix pre = layer_sum(g, t, norm);
    for (Index r = 0; r < pre.rows(); ++r) {
      auto row = pre.row(r);
      for (Index c = 0; c < pre.cols(); ++c) row[c] += params.bias[l](c, 0);
    }
    cache.transformed.push_back(std::move(t));
    Matrix out = pre;
    if (!last) tensor::relu_(out);
    cache.pre_act.push_back(std::move(pre));
    cache.inputs.push_back(std::move(out));
  }
  return cache;
}

float mse_loss(const Matrix& out, const Matrix& target) {
  assert(out.rows() == target.rows() && out.cols() == target.cols());
  double acc = 0.0;
  for (Index i = 0; i < out.size(); ++i) {
    const double d =
        static_cast<double>(out.data()[i]) - static_cast<double>(target.data()[i]);
    acc += d * d;
  }
  return static_cast<float>(0.5 * acc / static_cast<double>(out.size()));
}

Matrix mse_loss_grad(const Matrix& out, const Matrix& target) {
  Matrix d(out.rows(), out.cols());
  const float inv = 1.0f / static_cast<float>(out.size());
  for (Index i = 0; i < out.size(); ++i) {
    d.data()[i] = (out.data()[i] - target.data()[i]) * inv;
  }
  return d;
}

GcnGrads gcn_backward(const Csr& g, const GcnConfig& cfg, const GcnParams& params,
                      const GcnForwardCache& cache, const Matrix& d_out) {
  (void)cfg;
  const std::vector<float> norm = gcn_edge_norm(g);
  const std::size_t layers = params.weight.size();
  GcnGrads grads;
  grads.weight.resize(layers);
  grads.bias.resize(layers);

  Matrix d_h = d_out;
  for (std::size_t li = layers; li-- > 0;) {
    const bool last = li + 1 == layers;
    // Through the activation: ReLU' masks where pre_act <= 0.
    Matrix d_pre = d_h;
    if (!last) {
      const Matrix& pre = cache.pre_act[li];
      for (Index i = 0; i < d_pre.size(); ++i) {
        if (pre.data()[i] <= 0.0f) d_pre.data()[i] = 0.0f;
      }
    }
    // Bias gradient: column sums.
    Matrix d_b(params.bias[li].rows(), 1);
    for (Index r = 0; r < d_pre.rows(); ++r) {
      auto row = d_pre.row(r);
      for (Index c = 0; c < d_pre.cols(); ++c) d_b(c, 0) += row[c];
    }
    grads.bias[li] = std::move(d_b);
    // Through the aggregation: A is self-adjoint under the symmetric norm.
    const Matrix d_t = layer_sum(g, d_pre, norm);
    // Weight gradient: h^T d_t.
    grads.weight[li] = tensor::gemm(tensor::transpose(cache.inputs[li]), d_t);
    // Input gradient for the next (earlier) layer: d_t W^T.
    d_h = tensor::gemm_nt(d_t, params.weight[li]);
  }
  grads.input = std::move(d_h);
  return grads;
}

void sgd_step(GcnParams& params, const GcnGrads& grads, float lr) {
  assert(params.weight.size() == grads.weight.size());
  for (std::size_t l = 0; l < params.weight.size(); ++l) {
    tensor::axpy(params.weight[l], -lr, grads.weight[l]);
    tensor::axpy(params.bias[l], -lr, grads.bias[l]);
  }
}

}  // namespace gnnbridge::models
