// Helpers shared by the engine's translation units (engine.cpp and
// engine_shard.cpp). Internal — not part of the public engine API.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "baselines/backend.hpp"
#include "core/balance/neighbor_grouping.hpp"
#include "graph/fingerprint.hpp"
#include "kernels/common.hpp"
#include "obs/journal.hpp"
#include "rt/degrade.hpp"
#include "sim/context.hpp"

namespace gnnbridge::engine::detail {

namespace k = gnnbridge::kernels;

/// The optimization knobs the degradation ladder can turn off, one bit
/// each in a knob mask.
enum Knob : unsigned {
  kLas = 1u << 0,
  kAutoTune = 1u << 1,
  kAdapter = 1u << 2,
  kNeighborGrouping = 1u << 3,
  kSharding = 1u << 4,
};

/// Shard-recovery accounting for one run (DESIGN.md §17). It survives
/// across ladder rounds within one run: an abandoned sharded attempt's
/// retries stay counted after the fallback-to-unsharded rung succeeds, so
/// the counts can exceed what the successful attempt's RunStats report.
/// Flushed into the telemetry registry once per run.
struct RecoveryTally {
  std::uint64_t shard_retries = 0;       ///< per-shard retry decisions taken
  std::uint64_t shards_reexecuted = 0;   ///< shard phase bodies re-executed
  std::uint64_t fallback_unsharded = 0;  ///< sharded->unsharded ladder steps
  double wasted_cycles = 0.0;            ///< sim-cycles of failed attempts/redos
  /// Buffered journal events ("shard_retry"/"shard_fallback"), interleaved
  /// with the owning batch job's attempt events and flushed by run_batch's
  /// sequential fold. Null for direct (non-batch) runs, which surface
  /// recovery through the telemetry registry only.
  std::vector<obs::JournalEvent>* journal = nullptr;

  bool any() const { return shard_retries != 0 || fallback_unsharded != 0; }
};

/// State of one run_* call or one run_batch job, passed explicitly to
/// every attempt of it.
struct RunContext {
  /// The graph's fingerprint, hashed once per run and shared by preflight,
  /// the memo caches and the breaker key.
  graph::GraphFingerprint fp;
  /// Batch jobs walk a job-local ladder: knobs go off in `disabled` (never
  /// in the engine-wide mask, so one job's failures never change how a
  /// concurrent healthy job runs) and degradation events are buffered in
  /// `events` for run_batch's job-order flush. Direct runs degrade the
  /// engine for good and record straight into the metrics sink.
  bool job = false;
  unsigned disabled = 0;  ///< Knob bits this job runs without
  std::vector<rt::DegradationEvent> events;
  /// The job carries a private fault plan, so it must not take warm-cache
  /// shortcuts: a cache hit skips the work (and its fault seams) entirely,
  /// and warmth depends on which job got there first — thread timing. An
  /// isolated job recomputes LAS orders, tuned configurations and shard
  /// plans itself, making its fault schedule a function of the job alone.
  bool cache_isolated = false;
  RecoveryTally recovery;
};

/// Everything one engine attempt decides before its first launch,
/// resolved once by OptimizedEngine::resolve_plan and read-only after. (The
/// graph's fingerprint is the run's: RunContext::fp.)
struct AttemptPlan {
  /// Knobs on for this attempt: the configuration minus the engine-wide
  /// degraded knobs minus the job's own.
  unsigned knobs = 0;
  bool on(Knob knob) const { return (knobs & knob) != 0; }
  /// GAT's linear-property pipeline (needs the adapter).
  bool linear = false;
  int lanes = 32;
  /// Neighbor-grouping bound; 0 = one task per node.
  graph::EdgeId bound = 0;
  /// LAS order, or null for the natural order. Memoized by the engine.
  const std::vector<graph::NodeId>* las = nullptr;
  /// GCN/GAT only: > 1 runs the sharded pipelines.
  int shards = 1;
  /// Unsharded attempts only: the grouped task list.
  core::GroupedTasks grouped;
};

/// Owns the host matrices backing a pipeline's device mats. A deque keeps
/// element addresses stable across growth, so FeatureMat::host pointers
/// taken earlier stay valid.
struct Workspace {
  std::deque<baselines::Matrix> pool;
  k::FeatureMat mat(sim::SimContext& ctx, models::Index rows, models::Index cols,
                    const char* label) {
    pool.emplace_back(rows, cols);
    return k::device_mat(ctx, pool.back(), label);
  }
  k::FeatureMat from(sim::SimContext& ctx, const baselines::Matrix& m, const char* label) {
    pool.push_back(m);
    return k::device_mat(ctx, pool.back(), label);
  }
  k::FeatureMat from_vec(sim::SimContext& ctx, const std::vector<float>& v, const char* label) {
    pool.emplace_back(static_cast<models::Index>(v.size()), 1,
                      std::vector<float>(v.begin(), v.end()));
    return k::device_mat(ctx, pool.back(), label);
  }
};

// ---- Layer bodies ------------------------------------------------------
// One GCN and one GAT layer, written once and shared by the unsharded
// attempts, the sharded phase-B bodies, multi-head GAT and the training
// forward. Every path allocates a layer's buffers through *_layer_buffers,
// in one fixed order: device addresses, and with them the modeled
// counters, depend on that order.

/// One GCN layer's device buffers.
struct GcnLayer {
  k::FeatureMat w, b, t, out;  ///< weight, bias, transformed features, output
};
GcnLayer gcn_layer_buffers(sim::SimContext& ctx, Workspace& ws, models::Index rows,
                           const baselines::Matrix& w, const baselines::Matrix& b);

/// out = act(A_norm · t + b) over `grouped`'s tasks. Fused: one
/// aggregation kernel with the bias/ReLU epilogue inline — or, when
/// neighbor grouping split rows, deferred to a separate kernel (the
/// epilogue cannot read partial atomic sums). Unfused: the frameworks'
/// op-per-kernel sequence, where aggregation, bias add and activation each
/// round-trip the [N, F] tensor.
struct GcnAggregateArgs {
  const k::GraphOnDevice* graph = nullptr;
  const core::GroupedTasks* grouped = nullptr;
  const k::FeatureMat* norm = nullptr;  ///< symmetric edge norm, [E, 1]
  GcnLayer* layer = nullptr;
  bool fused = true;
  bool relu = true;
  int lanes = 32;
  k::ExecMode mode = k::ExecMode::kFull;
};
void gcn_aggregate(sim::SimContext& ctx, const GcnAggregateArgs& args);

/// One GAT layer's (or head's) device buffers.
struct GatLayer {
  k::FeatureMat w, att_l, att_r;  ///< weight and attention vectors
  k::FeatureMat t;                ///< transformed features, [N, F]
  k::FeatureMat att_src, att_dst;  ///< per-node attention scalars, [N, 1]
  k::FeatureMat e, vacc;           ///< edge scores [E, 1], softmax sums [N, 1]
  k::FeatureMat out;               ///< [N, F]
};
GatLayer gat_layer_buffers(sim::SimContext& ctx, Workspace& ws, models::Index rows,
                           models::Index edges, const baselines::Matrix& w,
                           const baselines::Matrix& att_l, const baselines::Matrix& att_r);

/// The GAT graph operations of one layer.
enum class GatGraphOps {
  kLinear,    ///< two kernels: fused score + normalization sum, then the
              ///< aggregation with the postponed softmax division (§4.2)
  kAdapter,   ///< adapter without the linear property: normalized weights
              ///< are materialized before the aggregation consumes them
  kListing1,  ///< the unoptimized seven-kernel pipeline of Listing 1
};

/// The attention scalars, the edge softmax and the weighted aggregation
/// into `out` over `grouped`'s tasks, then ReLU when `relu` is set. Every
/// variant honors the task distribution, so NG/LAS ablate independently
/// of fusion (Table 6).
struct GatGraphOpsArgs {
  const k::GraphOnDevice* graph = nullptr;
  const core::GroupedTasks* grouped = nullptr;
  GatLayer* layer = nullptr;
  float leaky_alpha = 0.2f;
  bool relu = true;
  int lanes = 32;
  k::ExecMode mode = k::ExecMode::kFull;
};
/// Listing 1 allocates its [E, 1] broadcast buffer from `ws` mid-pipeline.
void gat_graph_ops(sim::SimContext& ctx, Workspace& ws, GatGraphOps ops,
                   const GatGraphOpsArgs& args);

/// The GAT variant an attempt's adapter/linear flags select.
inline GatGraphOps gat_graph_ops_for(const AttemptPlan& plan) {
  return plan.linear                ? GatGraphOps::kLinear
         : plan.on(Knob::kAdapter) ? GatGraphOps::kAdapter
                                   : GatGraphOps::kListing1;
}

/// The engine's handwritten kernels are driven by a thin C++ launcher
/// wrapped in PyTorch; per-kernel host overhead is a fraction of the
/// baselines' per-op dispatch.
constexpr sim::Cycles kEngineOverheadCycles = 4000.0;

inline sim::DeviceSpec with_engine_overhead(sim::DeviceSpec spec) {
  spec.framework_overhead_cycles = kEngineOverheadCycles;
  return spec;
}

inline baselines::RunResult finish(sim::SimContext& ctx, const sim::DeviceSpec& spec,
                                   baselines::Matrix output) {
  baselines::RunResult r;
  r.stats = ctx.stats();
  r.ms = spec.millis(r.stats.total_cycles);
  r.output = std::move(output);
  return r;
}

}  // namespace gnnbridge::engine::detail
