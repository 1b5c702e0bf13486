// Deterministic fault injection (robustness subsystem, DESIGN.md §10).
//
// A fault plan arms named seams — well-defined failure points threaded
// through the system — so tests and operators can exercise every error
// path reproducibly. The plan comes from the GNNBRIDGE_FAULT_PLAN
// environment variable (parsed lazily on first use) or programmatically
// via `FaultInjector::set_plan`.
//
// Plan syntax: comma-separated entries, each `seam`, `seam=N` or `seam=*`:
//   GNNBRIDGE_FAULT_PLAN="las_cluster"          # fail the first LAS pass
//   GNNBRIDGE_FAULT_PLAN="tuner_probe=*"        # fail every tuner probe
//   GNNBRIDGE_FAULT_PLAN="sim_launch=2,fusion_pass"
// An armed seam fires (reports a kFaultInjected Status) the next N times
// it is reached, then passes. Unknown seam names are rejected by
// `set_plan` and warned-and-skipped when they come from the environment.
#pragma once

#include <array>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "rt/status.hpp"

namespace gnnbridge::rt {

// The named seams. Each is checked exactly where the real work happens.
inline constexpr std::string_view kSeamDatasetLoad = "dataset_load";    ///< graph::try_make_dataset
inline constexpr std::string_view kSeamLasCluster = "las_cluster";      ///< core::locality_aware_schedule
inline constexpr std::string_view kSeamTunerProbe = "tuner_probe";      ///< engine::measure_aggregation
inline constexpr std::string_view kSeamFusionPass = "fusion_pass";      ///< adapter/fusion availability
inline constexpr std::string_view kSeamSimLaunch = "sim_launch";        ///< sim::SimContext::launch
inline constexpr std::string_view kSeamMetricsWrite = "metrics_write";  ///< prof::MetricsSink::write_file
inline constexpr std::string_view kSeamShardPartition = "shard_partition";  ///< shard::partition_graph via engine
inline constexpr std::string_view kSeamShardCompute = "shard_compute";      ///< per-shard pool-job phase body
inline constexpr std::string_view kSeamShardExchange = "shard_exchange";    ///< per-layer ghost-feature exchange

inline constexpr std::array<std::string_view, 9> kKnownSeams = {
    kSeamDatasetLoad, kSeamLasCluster,   kSeamTunerProbe,
    kSeamFusionPass,  kSeamSimLaunch,    kSeamMetricsWrite,
    kSeamShardPartition, kSeamShardCompute, kSeamShardExchange,
};

/// One row of the seam table: the plan-syntax name plus a one-line
/// human description of where the seam fires and what absorbs it.
/// `gnnbridge_cli faults` prints this table so fault plans can be
/// written without a source read.
struct SeamInfo {
  std::string_view name;
  std::string_view description;
};

inline constexpr std::array<SeamInfo, 9> kSeamTable = {{
    {kSeamDatasetLoad, "graph::try_make_dataset; no ladder, surfaces as a load error"},
    {kSeamLasCluster, "locality-aware scheduling pass; ladder falls back to natural row order"},
    {kSeamTunerProbe, "auto-tuner aggregation probe; ladder disables auto-tuning for the run"},
    {kSeamFusionPass, "adapter/fusion availability check; ladder disables the fused adapter"},
    {kSeamSimLaunch, "sim::SimContext::launch; ladder walks grouping -> adapter -> LAS"},
    {kSeamMetricsWrite, "prof::MetricsSink::write_file; absorbed by the 3-attempt write retry"},
    {kSeamShardPartition, "shard::partition_graph via the engine plan cache; retry re-partitions"},
    {kSeamShardCompute, "inside one shard's per-layer phase body; shard is re-executed in place"},
    {kSeamShardExchange, "per-layer ghost-feature exchange; exchange is retried, then unsharded"},
}};

/// One-line description for a known seam; empty view when unknown.
std::string_view seam_description(std::string_view seam);

/// True when `seam` is one of kKnownSeams.
bool known_seam(std::string_view seam);

/// Thread-local observer invoked whenever an armed seam fires on the
/// calling thread. `shot` is the 0-based index of the consumed shot for
/// that seam within the active plan (job-local or global). Installed via
/// ScopedFireListener; used to surface `fault_injected` journal events
/// without coupling rt to the observability layer.
using FaultFireListener = void (*)(void* ctx, std::string_view seam, int shot);

/// RAII installer for the thread-local fire listener. Nests; restores
/// the previous listener on destruction.
class ScopedFireListener {
 public:
  ScopedFireListener(FaultFireListener fn, void* ctx);
  ~ScopedFireListener();
  ScopedFireListener(const ScopedFireListener&) = delete;
  ScopedFireListener& operator=(const ScopedFireListener&) = delete;

 private:
  FaultFireListener prev_fn_;
  void* prev_ctx_;
};

/// Process-wide fault-plan registry. Thread-safe.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Parses and installs a plan, replacing any previous one (including the
  /// environment's). Empty plan disarms everything. Returns
  /// kInvalidArgument on syntax errors or unknown seams; on error the
  /// previous plan is kept.
  Status set_plan(std::string_view plan);

  /// Disarms every seam (and suppresses later env re-loading).
  void clear();

  /// Consumes one armed shot for `seam`. Returns the injected failure
  /// when the seam fires, std::nullopt when it passes.
  std::optional<Status> fire(std::string_view seam);

  /// True when `seam` would fire (does not consume).
  bool armed(std::string_view seam) const;

  /// Remaining plan in plan syntax ("seam=2,other=*"); empty when disarmed.
  std::string plan_string() const;

  struct Arm {
    int remaining = 0;   // shots left (ignored when always)
    bool always = false;
    int fired = 0;       // shots already consumed (the next shot's index)
  };

  /// Per-job fault plan, confined to the installing thread.
  ///
  /// While a ScopedJobPlan is active, `fire`/`armed` on that thread consult
  /// ONLY the job's private arms — never the global plan — so concurrent
  /// batch jobs cannot race on shared shot counters (each job sees its own
  /// deterministic fault schedule regardless of how jobs are interleaved
  /// across pool threads). Scopes nest; the previous plan is restored on
  /// destruction. A malformed plan leaves the scope inactive (global plan
  /// still visible) and reports the parse error via `status()`.
  class ScopedJobPlan {
   public:
    explicit ScopedJobPlan(std::string_view plan);
    ~ScopedJobPlan();
    ScopedJobPlan(const ScopedJobPlan&) = delete;
    ScopedJobPlan& operator=(const ScopedJobPlan&) = delete;

    /// OK when the plan parsed and the scope is active.
    const Status& status() const { return status_; }

   private:
    std::map<std::string, Arm, std::less<>> arms_;
    std::map<std::string, Arm, std::less<>>* prev_ = nullptr;
    bool active_ = false;
    Status status_;
  };

 private:
  FaultInjector() = default;
  void maybe_load_env_locked();

  mutable std::mutex mu_;
  bool env_checked_ = false;
  std::map<std::string, Arm, std::less<>> arms_;
};

/// Shorthand for FaultInjector::instance().fire(seam).
inline std::optional<Status> fire_fault(std::string_view seam) {
  return FaultInjector::instance().fire(seam);
}

/// Fires the seam and throws StageFailure when it is armed. For seams in
/// call chains that propagate errors by exception (see StageFailure).
void raise_if_armed(std::string_view seam, std::string_view where);

}  // namespace gnnbridge::rt
