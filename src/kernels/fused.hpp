// Fused kernels — the lowered output of the data-visible-range adapter.
//
// Once adapters reconcile their data visible ranges (paper §4.2), several
// of the baseline's fine-grained operations share one kernel. The fused
// layer bodies of baselines/pipeline.hpp launch these kernels:
//
//  * `gat_edge_fused`       — u_add_v + leaky_relu + exp in one pass over
//                             each task's edge range; optionally also
//                             accumulates the per-center exp-sum (the
//                             *linear property*: the softmax division is
//                             postponed, so the normalization sum can be
//                             produced concurrently with the scores).
//  * `softmax_div_fused`    — broadcast + divide in one kernel (the
//                             adapter-only pipeline, no linear property).
//  * `gat_aggregate_fused`  — weighted aggregation with the postponed
//                             softmax division folded into the epilogue.
//  * `aggregate_bias_act_fused` — GCN aggregation + bias + ReLU epilogue.
//
// Fusion buys exactly what the paper lists: fewer launches, no [E,1]
// intermediate round-trips, and one graph-structure load instead of many.
#pragma once

#include "kernels/common.hpp"

namespace gnnbridge::kernels {

/// Fused GAT edge-score kernel: e[i] = exp(leaky_relu(att_src[u] + att_dst[v])).
struct GatEdgeFusedArgs {
  const GraphOnDevice* graph = nullptr;
  std::span<const Task> tasks;
  const FeatureMat* att_src = nullptr;  ///< [N, 1]
  const FeatureMat* att_dst = nullptr;  ///< [N, 1]
  FeatureMat* edge_out = nullptr;       ///< [E, 1]
  /// When set, also accumulates v_acc[v] += sum(e over task range)
  /// atomically (linear-property pipeline).
  FeatureMat* vacc_out = nullptr;       ///< [N, 1], may be null
  float leaky_alpha = 0.2f;
  bool atomic_merge = false;
  const char* name = "gat_edge_fused";
  const char* phase = "graph_op";
};
const sim::KernelStats& gat_edge_fused(sim::SimContext& ctx, const GatEdgeFusedArgs& args);

/// Fused softmax normalization: e[i] /= v_acc[center(i)] for the tasks'
/// edge ranges (broadcast + div in one kernel).
struct SoftmaxDivFusedArgs {
  const GraphOnDevice* graph = nullptr;
  std::span<const Task> tasks;
  const FeatureMat* vacc = nullptr;  ///< [N, 1]
  FeatureMat* edge = nullptr;        ///< [E, 1], in/out
  const char* name = "softmax_div_fused";
  const char* phase = "graph_op";
};
const sim::KernelStats& softmax_div_fused(sim::SimContext& ctx, const SoftmaxDivFusedArgs& args);

/// Weighted aggregation with the postponed softmax division folded in:
/// out[v] = sum_u (e_uv / vacc[v]) * feat[u]. The division is applied per
/// edge (not as a row epilogue), so it is race-free even when neighbor
/// grouping split the row across blocks — the linear property in action.
/// Without `vacc` the weights are used as they are (already normalized).
struct GatAggregateFusedArgs {
  const GraphOnDevice* graph = nullptr;
  std::span<const Task> tasks;
  const FeatureMat* feat = nullptr;       ///< [N, F]
  const FeatureMat* edge_weight = nullptr;///< [E, 1]
  const FeatureMat* vacc = nullptr;       ///< [N, 1], may be null
  FeatureMat* out = nullptr;              ///< [N, F]
  int lanes = 32;
  bool atomic_merge = false;
  const char* name = "gat_aggregate_fused";
  const char* phase = "graph_op";
};
const sim::KernelStats& gat_aggregate_fused(sim::SimContext& ctx,
                                            const GatAggregateFusedArgs& args);

/// GCN-style fused epilogue: out[v] = act(sum_u w_uv * feat[u] + bias).
struct AggregateBiasActFusedArgs {
  const GraphOnDevice* graph = nullptr;
  std::span<const Task> tasks;
  const FeatureMat* feat = nullptr;        ///< [N, F]
  const FeatureMat* edge_weight = nullptr; ///< optional [E, 1]
  const FeatureMat* bias = nullptr;        ///< optional [F, 1]
  FeatureMat* out = nullptr;               ///< [N, F]
  bool relu = true;
  /// As in GatAggregateFusedArgs: epilogue must be deferred under NG.
  bool epilogue_inline = true;
  int lanes = 32;
  bool atomic_merge = false;
  const char* name = "aggregate_bias_act";
  const char* phase = "graph_op";
};
const sim::KernelStats& aggregate_bias_act_fused(sim::SimContext& ctx,
                                                 const AggregateBiasActFusedArgs& args);

/// Deferred bias+activation epilogue (runs after an NG-split aggregation).
struct BiasActArgs {
  const FeatureMat* bias = nullptr;  ///< optional [F, 1]
  FeatureMat* mat = nullptr;         ///< [N, F]
  bool relu = true;
  const char* name = "bias_act";
  const char* phase = "elementwise";
};
const sim::KernelStats& bias_act_kernel(sim::SimContext& ctx, const BiasActArgs& args);

}  // namespace gnnbridge::kernels
