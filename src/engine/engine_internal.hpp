// Engine state shared by the engine's translation units (engine.cpp and
// engine_shard.cpp): the knob bits, one run's context and one attempt's
// plan. Internal — not part of the public engine API. The layer bodies the
// attempts run live in baselines/pipeline.hpp, shared with the baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/pipeline.hpp"
#include "core/balance/neighbor_grouping.hpp"
#include "graph/fingerprint.hpp"
#include "obs/journal.hpp"
#include "rt/degrade.hpp"
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
