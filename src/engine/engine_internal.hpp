// Engine state shared by the engine's translation units (engine.cpp and
// engine_shard.cpp): the knob bits, one run's context and one attempt's
// plan. Internal — not part of the public engine API. The layer bodies the
// attempts run live in baselines/pipeline.hpp, shared with the baselines.
#pragma once

#include <vector>

#include "baselines/pipeline.hpp"
#include "graph/fingerprint.hpp"
#include "kernels/common.hpp"
#include "obs/journal.hpp"
#include "rt/degrade.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"

namespace gnnbridge::engine::detail {

/// The optimization knobs the degradation ladder can turn off, one bit
/// each in a knob mask.
enum Knob : unsigned {
  kLas = 1u << 0,
  kAutoTune = 1u << 1,
  kAdapter = 1u << 2,
  kNeighborGrouping = 1u << 3,
  kSharding = 1u << 4,
};

/// The record of one run — a direct run_* call, or one run_batch job with
/// all its attempts — passed explicitly to every attempt of it and handed
/// on whole by OptimizedEngine::publish when the run ends.
struct RunContext {
  /// The graph's fingerprint, hashed once per run and shared by preflight,
  /// the graph memo and a batch job's journal key.
  graph::GraphFingerprint fp;
  /// A batch job's ladder stays job-local: publish never ORs its knobs into
  /// the engine-wide mask, so one job's failures never change how another
  /// job runs. A direct run degrades the engine for good when it ends.
  bool job = false;
  /// The job carries a private fault plan, so it must not take warm-cache
  /// shortcuts: a cache hit skips the work (and its fault seams) entirely,
  /// and warmth depends on which job got there first — thread timing. An
  /// isolated job recomputes LAS orders, tuned configurations and shard
  /// plans itself, making its fault schedule a function of the job alone.
  bool cache_isolated = false;
  unsigned disabled = 0;  ///< Knob bits the run's ladder turned off
  std::vector<rt::DegradationEvent> degradations;
  /// The run's story in emission order: fault shots, attempts, shard
  /// retries and shard fallbacks. Journaled when publish is given a journal.
  std::vector<obs::JournalEvent> events;
  sim::RecoveryStats recovery;
};

/// SIMD lanes per feature row when the tuner does not pick them: the
/// warp-wide mapping the baselines fix (Observation 5).
constexpr int kUntunedLanes = 32;

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
  /// SIMD lanes per feature row: the tuned mapping, else kUntunedLanes.
  int lanes = kUntunedLanes;
  /// Neighbor-grouping bound; 0 = one task per node.
  graph::EdgeId bound = 0;
  /// LAS order, or null for the natural order. Memoized by the engine.
  const std::vector<graph::NodeId>* las = nullptr;
  /// GCN/GAT only: > 1 runs the sharded pipelines.
  int shards = 1;
  /// Unsharded attempts only: the grouped task list.
  kernels::GroupedTasks grouped;
};

/// The GAT variant an attempt's adapter/linear flags select.
inline baselines::pipeline::GatGraphOps gat_graph_ops_for(const AttemptPlan& plan) {
  using baselines::pipeline::GatGraphOps;
  return plan.linear                ? GatGraphOps::kLinear
         : plan.on(Knob::kAdapter) ? GatGraphOps::kAdapter
                                   : GatGraphOps::kListing1;
}

/// The engine's handwritten kernels are driven by a thin C++ launcher
/// wrapped in PyTorch; per-kernel host overhead is a fraction of the
/// baselines' per-op dispatch.
constexpr sim::Cycles kEngineOverheadCycles = 4000.0;

}  // namespace gnnbridge::engine::detail
