// Per-edge elementwise and segment kernels.
//
// The DGL baseline decomposes a GAT layer into seven fine-grained
// operations (Listing 1 of the paper): each one below becomes its own
// kernel launch, with the [E]-sized intermediates round-tripping through
// global memory. That decomposition is what Observation 3 measures and the
// data-visible-range adapter later removes.
#pragma once

#include <functional>

#include "kernels/common.hpp"

namespace gnnbridge::kernels {

/// Unary elementwise op over an [E, 1] edge array (exp, leaky_relu, ...).
/// `flops_per_elem` prices the math (exp is ~4 flops on GPU SFUs).
struct EdgeMapArgs {
  const FeatureMat* in = nullptr;   ///< [E, 1]
  FeatureMat* out = nullptr;        ///< [E, 1] (may alias in)
  std::function<float(float)> fn;   ///< host semantics; runs on pool threads
  double flops_per_elem = 1.0;
  const char* name = "edge_map";
  const char* phase = "graph_op";
};
const sim::KernelStats& edge_map(sim::SimContext& ctx, const EdgeMapArgs& args);

/// Binary elementwise op over two [E, 1] arrays (the softmax div).
struct EdgeBinaryArgs {
  const FeatureMat* a = nullptr;
  const FeatureMat* b = nullptr;
  FeatureMat* out = nullptr;
  std::function<float(float, float)> fn;  ///< runs on pool threads: keep it pure
  double flops_per_elem = 1.0;
  const char* name = "edge_binary";
  const char* phase = "graph_op";
};
const sim::KernelStats& edge_binary(sim::SimContext& ctx, const EdgeBinaryArgs& args);

/// Segment sum over incoming edges: v_acc[v] = sum of e[i] over v's CSR row
/// (DGL's `reduce_edge("sum", e)`).
struct SegmentSumArgs {
  const GraphOnDevice* graph = nullptr;
  std::span<const Task> tasks;
  const FeatureMat* edge_val = nullptr;  ///< [E, 1]
  FeatureMat* node_out = nullptr;        ///< [N, 1]
  /// True when tasks split rows and partials merge atomically.
  bool atomic_merge = false;
  const char* name = "segment_sum";
  const char* phase = "graph_op";
};
const sim::KernelStats& segment_sum(sim::SimContext& ctx, const SegmentSumArgs& args);

/// Broadcast per-node values back to edges: e_acc[i] = node_val[v_i]
/// (DGL's `broadcast_edge`).
struct BroadcastArgs {
  const GraphOnDevice* graph = nullptr;
  std::span<const Task> tasks;
  const FeatureMat* node_val = nullptr;  ///< [N, 1]
  FeatureMat* edge_out = nullptr;        ///< [E, 1]
  const char* name = "broadcast_edge";
  const char* phase = "graph_op";
};
const sim::KernelStats& broadcast_edge(sim::SimContext& ctx, const BroadcastArgs& args);

}  // namespace gnnbridge::kernels
