// Feature-expansion kernels (edge-parallel, PyG style).
//
// PyG's aggregation (Figure 2, upper half) materializes an [E, F] source
// feature matrix with an index-select kernel, then scatter-reduces it into
// the [N, F] output. Observation 1/4 of the paper: the expansion costs
// E*F loads and an E*F-sized footprint. DGL's GraphSAGE-LSTM path uses the
// same gather to build per-step neighbor feature matrices.
#pragma once

#include "graph/coo.hpp"
#include "kernels/common.hpp"

namespace gnnbridge::kernels {

/// The edge list resident in simulated device memory (PyG's graph format).
struct EdgeListOnDevice {
  const graph::Coo* coo = nullptr;
  sim::Buffer src;  ///< E x 4 bytes
  sim::Buffer dst;  ///< E x 4 bytes
};

/// Uploads (allocates) the edge arrays for `coo`.
EdgeListOnDevice device_edges(sim::SimContext& ctx, const graph::Coo& coo, const char* name);

/// Number of edges each edge-parallel block processes.
inline constexpr EdgeId kEdgeChunk = 256;

/// Index-select: expanded[i] = feat[src_index[i]] for i in [0, n).
/// `src_index` points into the COO src (or dst) array; `expanded` is
/// [n, F]. One block per kEdgeChunk edges.
struct GatherArgs {
  const EdgeListOnDevice* edges = nullptr;
  /// Gather by source endpoint (true) or destination endpoint (false).
  bool by_src = true;
  const FeatureMat* feat = nullptr;   ///< [N, F]
  FeatureMat* expanded = nullptr;     ///< [E, F]
  const char* name = "gather";
  const char* phase = "expansion";
};
const sim::KernelStats& gather(sim::SimContext& ctx, const GatherArgs& args);

/// Scatter-reduce: out[dst[i]] += weight[i] * expanded[i], a sum (PyG's
/// reducer). Atomic merge by construction (many edges share a destination).
struct ScatterArgs {
  const EdgeListOnDevice* edges = nullptr;
  const FeatureMat* expanded = nullptr;    ///< [E, F]
  const FeatureMat* edge_weight = nullptr; ///< optional [E, 1]
  FeatureMat* out = nullptr;               ///< [N, F]
  const char* name = "scatter_reduce";
  const char* phase = "graph_op";
};
const sim::KernelStats& scatter_reduce(sim::SimContext& ctx, const ScatterArgs& args);

/// Gathers the `step`-th sampled neighbor feature of every center node into
/// a dense [N, F] matrix (the per-LSTM-cell expansion of DGL's
/// GraphSAGE-LSTM, Observation 4). Nodes with fewer than `step+1` neighbors
/// wrap around; zero-degree nodes read row 0 of a zero matrix.
struct StepGatherArgs {
  const GraphOnDevice* graph = nullptr;
  int step = 0;
  const FeatureMat* feat = nullptr;  ///< [N, F]
  FeatureMat* out = nullptr;         ///< [N, F]
  const char* name = "step_gather";
  const char* phase = "expansion";
};
const sim::KernelStats& step_gather(sim::SimContext& ctx, const StepGatherArgs& args);

}  // namespace gnnbridge::kernels
