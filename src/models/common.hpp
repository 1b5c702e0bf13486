// Model configurations and parameters.
//
// The three evaluated models with the paper's exact shapes (§5.1):
//   * GCN and GAT: three stacked layers, 512 input features, 128 and 64
//     hidden features, 32 output features;
//   * GraphSAGE-LSTM: one layer, 32-feature input and output, 16 sampled
//     neighbors (one LSTM cell per sampled neighbor).
// Parameters are Glorot-initialized from a seed so every backend runs the
// same weights and their outputs can be compared bit-for-bit... well,
// float-for-float.
#pragma once

#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace gnnbridge::models {

using graph::Csr;
using graph::EdgeId;
using graph::NodeId;
using tensor::Index;
using tensor::Matrix;

/// The models the paper evaluates end to end, then the two extension
/// models (GraphSAGE-Pool, multi-head GAT).
enum class ModelKind { kGcn, kGat, kSageLstm, kSagePool, kMultiHeadGat };

std::string_view model_name(ModelKind kind);

/// GCN: h^{l+1} = ReLU(A_norm h^l W^l + b^l).
struct GcnConfig {
  /// Layer widths: dims[0] is the input feature length; one layer per
  /// consecutive pair. Paper: {512, 128, 64, 32}.
  std::vector<Index> dims = {512, 128, 64, 32};
};

/// GAT (single head): Equation 2 of the paper.
struct GatConfig {
  std::vector<Index> dims = {512, 128, 64, 32};
  float leaky_alpha = 0.2f;
};

/// GraphSAGE-LSTM: one layer, LSTM over `steps` sampled neighbors.
struct SageLstmConfig {
  Index in_feat = 32;
  Index hidden = 32;
  int steps = 16;
};

/// Per-layer GCN parameters.
struct GcnParams {
  std::vector<Matrix> weight;  ///< [F_in, F_out] per layer
  std::vector<Matrix> bias;    ///< [F_out, 1] per layer
};
GcnParams init_gcn(const GcnConfig& cfg, std::uint64_t seed);

/// Per-layer GAT parameters.
struct GatParams {
  std::vector<Matrix> weight;   ///< [F_in, F_out]
  std::vector<Matrix> att_l;    ///< [F_out, 1]
  std::vector<Matrix> att_r;    ///< [F_out, 1]
};
GatParams init_gat(const GatConfig& cfg, std::uint64_t seed);

/// GraphSAGE-LSTM parameters: input weights W* pack the four gates
/// [F, 4H] in i,f,z,o order; recurrent weights R pack [H, 4H]; bias [4H,1].
struct SageLstmParams {
  Matrix w;     ///< [F, 4H]
  Matrix r;     ///< [H, 4H]
  Matrix bias;  ///< [4H, 1]
  Matrix out_w; ///< [H, H] final projection
};
SageLstmParams init_sage_lstm(const SageLstmConfig& cfg, std::uint64_t seed);

/// Creates the [N, F] input feature matrix every backend starts from.
Matrix init_features(NodeId num_nodes, Index feat, std::uint64_t seed);

/// The symmetric GCN edge normalization 1/sqrt(d_u d_v) per CSR edge slot
/// (Table 2 of the paper); degrees are in-degrees + 1 (self-loop
/// convention) so isolated nodes stay finite.
std::vector<float> gcn_edge_norm(const Csr& csr);

}  // namespace gnnbridge::models
