// The layer library every backend builds its forwards from.
//
// One copy of each layer body the DGL-style backend and the optimized
// engine share: the GCN aggregation (fused or op-per-kernel), the GAT graph
// operations in their three variants (Listing 1's seven kernels, the
// adapter, the linear property), GraphSAGE-Pool's forward and multi-head
// GAT's head concatenation — plus the per-run scaffolding all four
// backends use (Workspace, with_overhead, finish). A body runs over the
// task list and thread mapping it is given: DGL passes natural_tasks at 32
// lanes, the engine its LAS-ordered, neighbor-grouped, tuned schedule.
//
// Device addresses come from a bump allocator (sim::AddressSpace), so the
// order buffers are allocated in fixes every modeled counter. The graph-op
// bodies (gcn_aggregate, gat_graph_ops) allocate nothing: their buffers
// come from the caller, in the caller's order. sage_pool and multihead_gat
// allocate in the one order both backends share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "baselines/backend.hpp"
#include "kernels/common.hpp"
#include "sim/context.hpp"

namespace gnnbridge::baselines::pipeline {

namespace k = gnnbridge::kernels;

/// Allocates a run's device mats in the run's mode: the one place a run's
/// ExecMode turns into behaviour, since every kernel computes exactly when
/// its operands have host storage. In kFull each mat is backed by a host
/// matrix the workspace owns; a deque keeps element addresses stable
/// across growth, so FeatureMat::host pointers taken earlier stay valid. In
/// kSimulateOnly host matrices do not exist: a mat is its shape and device
/// address only (no storage, no copy), which is all a trace depends on.
class Workspace {
 public:
  explicit Workspace(k::ExecMode mode) : full_(mode == k::ExecMode::kFull) {}

  k::FeatureMat mat(sim::SimContext& ctx, models::Index rows, models::Index cols,
                    const char* label) {
    if (!full_) return k::device_mat_shape(ctx, rows, cols, label);
    pool_.emplace_back(rows, cols);
    return k::device_mat(ctx, pool_.back(), label);
  }
  k::FeatureMat from(sim::SimContext& ctx, const Matrix& m, const char* label) {
    if (!full_) return k::device_mat_shape(ctx, m.rows(), m.cols(), label);
    pool_.push_back(m);
    return k::device_mat(ctx, pool_.back(), label);
  }
  k::FeatureMat from_vec(sim::SimContext& ctx, const std::vector<float>& v, const char* label) {
    const auto rows = static_cast<models::Index>(v.size());
    if (!full_) return k::device_mat_shape(ctx, rows, 1, label);
    pool_.emplace_back(rows, 1, std::vector<float>(v.begin(), v.end()));
    return k::device_mat(ctx, pool_.back(), label);
  }

 private:
  bool full_;
  std::deque<Matrix> pool_;
};

/// `spec` with a backend's per-launch host overhead (Observation 3): each
/// backend keeps its own constant.
inline sim::DeviceSpec with_overhead(sim::DeviceSpec spec, sim::Cycles cycles) {
  spec.framework_overhead_cycles = cycles;
  return spec;
}

/// The run's counters, taken from `ctx`, and simulated time, with `output`
/// as its result.
RunResult finish(sim::SimContext& ctx, const sim::DeviceSpec& spec, Matrix output);

// ---- GCN ---------------------------------------------------------------

/// One GCN layer's device buffers.
struct GcnLayer {
  k::FeatureMat w, b, t, out;  ///< weight, bias, transformed features, output
};
GcnLayer gcn_layer_buffers(sim::SimContext& ctx, Workspace& ws, models::Index rows,
                           const Matrix& w, const Matrix& b);

/// out = act(A_norm · t + b) over `tasks`. Fused: one aggregation kernel
/// with the bias/ReLU epilogue inline — or, when tasks split rows,
/// deferred to a separate kernel (the epilogue cannot read partial atomic
/// sums). Unfused: the frameworks' op-per-kernel sequence, where
/// aggregation, bias add and activation each round-trip the [N, F] tensor.
struct GcnAggregateArgs {
  const k::GraphOnDevice* graph = nullptr;
  std::span<const k::Task> tasks;  ///< in launch order
  bool any_split = false;          ///< tasks split rows: partial sums merge atomically
  const k::FeatureMat* norm = nullptr;  ///< symmetric edge norm, [E, 1]
  GcnLayer* layer = nullptr;
  bool fused = true;
  bool relu = true;
  int lanes = 32;
};
void gcn_aggregate(sim::SimContext& ctx, const GcnAggregateArgs& args);

// ---- GAT ---------------------------------------------------------------

/// The GAT graph operations of one layer.
enum class GatGraphOps {
  kLinear,    ///< two kernels: fused score + normalization sum, then the
              ///< aggregation with the postponed softmax division (§4.2)
  kAdapter,   ///< adapter without the linear property: normalized weights
              ///< are materialized before the aggregation consumes them
  kListing1,  ///< the unoptimized seven-kernel pipeline of Listing 1
};

/// One GAT layer's (or head's) device buffers.
struct GatLayer {
  k::FeatureMat w, att_l, att_r;  ///< weight and attention vectors
  k::FeatureMat t;                ///< transformed features, [N, F]
  k::FeatureMat att_src, att_dst;  ///< per-node attention scalars, [N, 1]
  k::FeatureMat e, vacc;           ///< edge scores [E, 1], softmax sums [N, 1]
  k::FeatureMat out;               ///< [N, F]
  k::FeatureMat e_acc;             ///< Listing 1 only: sums broadcast to edges, [E, 1]
};
/// The engine's buffer order: member order, with Listing 1's broadcast
/// buffer allocated last and only for that variant.
GatLayer gat_layer_buffers(sim::SimContext& ctx, Workspace& ws, models::Index rows,
                           models::Index edges, const Matrix& w, const Matrix& att_l,
                           const Matrix& att_r, GatGraphOps ops);

/// The attention scalars, the edge softmax and the weighted aggregation
/// into `out` over `tasks`, then ReLU when `relu` is set. Every variant
/// honors the task distribution, so NG/LAS ablate independently of fusion
/// (Table 6).
struct GatGraphOpsArgs {
  const k::GraphOnDevice* graph = nullptr;
  std::span<const k::Task> tasks;  ///< in launch order
  bool any_split = false;          ///< tasks split rows: partial sums merge atomically
  GatLayer* layer = nullptr;
  float leaky_alpha = 0.2f;
  bool relu = true;
  int lanes = 32;
};
void gat_graph_ops(sim::SimContext& ctx, GatGraphOps ops, const GatGraphOpsArgs& args);

/// Multi-head GAT's one layer: `head(x, h)` runs head h over the input
/// features x and returns its [N, head_dim] output, which lands in column
/// slice h of the concatenated result (when the workspace has host storage;
/// empty otherwise). On a GPU the heads' epilogues store straight into
/// their slices; per-head buffers carry the identical traffic.
template <typename Head>
Matrix multihead_gat(sim::SimContext& ctx, Workspace& ws, const MultiHeadGatRun& run,
                     Head&& head) {
  const k::FeatureMat x = ws.from(ctx, *run.features, "x");
  const bool full = x.host != nullptr;
  Matrix concat = full ? Matrix(x.rows, run.cfg->out_feat()) : Matrix();
  for (int h = 0; h < run.cfg->heads; ++h) {
    const k::FeatureMat out = head(x, static_cast<std::size_t>(h));
    if (!full) continue;
    const models::Index off = static_cast<models::Index>(h) * run.cfg->head_dim;
    for (models::Index v = 0; v < x.rows; ++v) {
      const auto src = out.host->row(v);
      std::copy(src.begin(), src.end(), concat.row(v).begin() + off);
    }
  }
  return concat;
}

// ---- GraphSAGE-Pool ----------------------------------------------------

/// GraphSAGE-Pool's forward: transform + bias + ReLU, max aggregation over
/// `tasks` (split rows merge through atomic max, exactly as sums do —
/// paper §4.1.2), then the output projection. Returns the output.
k::FeatureMat sage_pool(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& graph,
                        std::span<const k::Task> tasks, bool any_split, int lanes,
                        const SagePoolRun& run);

}  // namespace gnnbridge::baselines::pipeline
