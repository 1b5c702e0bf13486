// SDDMM-style edge-weight kernels.
//
// These compute the per-edge quantities of Table 2 of the paper from
// per-node operands, e.g. GAT's att_src[u] + att_dst[v]. They run in the
// center-neighbor pattern over the task list, so they compose with
// neighbor grouping and locality-aware scheduling.
#pragma once

#include "kernels/common.hpp"

namespace gnnbridge::kernels {

/// e[i] = src_scalar[u_i] + dst_scalar[v_i] over the tasks' edge ranges.
/// (DGL's `u_add_v` primitive — step 1 of Listing 1.)
struct UAddVArgs {
  const GraphOnDevice* graph = nullptr;
  std::span<const Task> tasks;
  const FeatureMat* src_scalar = nullptr;  ///< [N, 1]
  const FeatureMat* dst_scalar = nullptr;  ///< [N, 1]
  FeatureMat* edge_out = nullptr;          ///< [E, 1]
  const char* name = "u_add_v";
  const char* phase = "graph_op";
};
const sim::KernelStats& u_add_v(sim::SimContext& ctx, const UAddVArgs& args);

}  // namespace gnnbridge::kernels
