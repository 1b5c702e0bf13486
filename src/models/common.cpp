#include "models/common.hpp"

#include <cassert>
#include <cmath>

namespace gnnbridge::models {

std::string_view model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGcn: return "GCN";
    case ModelKind::kGat: return "GAT";
    case ModelKind::kSageLstm: return "GraphSAGE-LSTM";
    case ModelKind::kSagePool: return "GraphSAGE-Pool";
    case ModelKind::kMultiHeadGat: return "multi-head GAT";
  }
  assert(false);
  return "?";
}

GcnParams init_gcn(const GcnConfig& cfg, std::uint64_t seed) {
  assert(cfg.dims.size() >= 2);
  tensor::Rng rng(seed);
  GcnParams p;
  for (std::size_t l = 0; l + 1 < cfg.dims.size(); ++l) {
    Matrix w(cfg.dims[l], cfg.dims[l + 1]);
    tensor::fill_glorot(w, rng);
    p.weight.push_back(std::move(w));
    Matrix b(cfg.dims[l + 1], 1);
    tensor::fill_uniform(b, rng, -0.1f, 0.1f);
    p.bias.push_back(std::move(b));
  }
  return p;
}

GatParams init_gat(const GatConfig& cfg, std::uint64_t seed) {
  assert(cfg.dims.size() >= 2);
  tensor::Rng rng(seed + 1);
  GatParams p;
  for (std::size_t l = 0; l + 1 < cfg.dims.size(); ++l) {
    Matrix w(cfg.dims[l], cfg.dims[l + 1]);
    tensor::fill_glorot(w, rng);
    p.weight.push_back(std::move(w));
    Matrix al(cfg.dims[l + 1], 1);
    Matrix ar(cfg.dims[l + 1], 1);
    tensor::fill_glorot(al, rng);
    tensor::fill_glorot(ar, rng);
    p.att_l.push_back(std::move(al));
    p.att_r.push_back(std::move(ar));
  }
  return p;
}

SageLstmParams init_sage_lstm(const SageLstmConfig& cfg, std::uint64_t seed) {
  tensor::Rng rng(seed + 2);
  SageLstmParams p;
  p.w = Matrix(cfg.in_feat, 4 * cfg.hidden);
  p.r = Matrix(cfg.hidden, 4 * cfg.hidden);
  p.bias = Matrix(4 * cfg.hidden, 1);
  p.out_w = Matrix(cfg.hidden, cfg.hidden);
  tensor::fill_glorot(p.w, rng);
  tensor::fill_glorot(p.r, rng);
  tensor::fill_uniform(p.bias, rng, -0.1f, 0.1f);
  tensor::fill_glorot(p.out_w, rng);
  return p;
}

Matrix init_features(NodeId num_nodes, Index feat, std::uint64_t seed) {
  tensor::Rng rng(seed + 3);
  Matrix x(num_nodes, feat);
  tensor::fill_uniform(x, rng, -1.0f, 1.0f);
  return x;
}

std::vector<float> gcn_edge_norm(const Csr& csr) {
  std::vector<float> inv_sqrt(static_cast<std::size_t>(csr.num_nodes));
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    inv_sqrt[static_cast<std::size_t>(v)] =
        1.0f / std::sqrt(static_cast<float>(csr.degree(v) + 1));
  }
  std::vector<float> norm(static_cast<std::size_t>(csr.num_edges()));
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    for (EdgeId e = csr.row_ptr[v]; e < csr.row_ptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const NodeId u = csr.col_idx[static_cast<std::size_t>(e)];
      norm[static_cast<std::size_t>(e)] =
          inv_sqrt[static_cast<std::size_t>(u)] * inv_sqrt[static_cast<std::size_t>(v)];
    }
  }
  return norm;
}

}  // namespace gnnbridge::models
