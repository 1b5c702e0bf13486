// Overload-safe serving core (DESIGN.md §14).
//
// An AdmissionController polices a stream of BatchJobs before they reach
// OptimizedEngine::run_batch: a bounded virtual request queue, per-tenant
// token-bucket quotas, deadline-feasibility and memory-budget checks from
// fingerprint-keyed cost/footprint estimates, and priority-classed load
// shedding behind a shed ladder that pre-degrades host-expensive engine
// knobs before it starts dropping work. Rejections surface as
// rt::StatusCode::kResourceExhausted carrying a retry-after hint (both as
// a structured Decision field and embedded in the Status message).
//
// Determinism: every admission decision is a pure function of the job
// stream — arrival stamps, tenants, priorities and content fingerprints —
// evaluated in arrival (input) order against a virtual single-server
// queue driven by sim-time. Time never comes from a wall clock, and
// journal/telemetry emission happens in sequential arrival/dispatch-order
// passes, so the emitted bytes are identical at any host thread count
// (the §11–§13 contract extended to admission control).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/footprint.hpp"
#include "engine/engine.hpp"
#include "rt/status.hpp"

namespace gnnbridge::serve {

using BatchJob = engine::OptimizedEngine::BatchJob;

/// Shedding priority classes, the BatchJob::priority values. Low classes
/// are shed first under overload; kHigh is never shed (it can still be
/// rejected by the bounded queue, quotas, or the feasibility checks).
enum class Priority : int { kLow = 0, kNormal = 1, kHigh = 2 };

/// "low" / "normal" / "high".
std::string_view priority_name(Priority p);

/// Clamps a BatchJob::priority integer into the enum.
Priority job_priority(const BatchJob& job);

/// Per-tenant quota: a token bucket over estimated cost-cycles plus a
/// weighted-fair-queueing weight. Tokens accrue with the *arrival* clock
/// (BatchJob::arrival_cycles) and are debited by each admitted job's
/// estimated cost, so a tenant's sustainable rate is `rate` cost-cycles of
/// engine work per sim-cycle of stream time, with bursts up to `burst`.
struct TenantQuota {
  double rate = 1.0;          ///< cost-cycles earned per arrival sim-cycle
  double burst_cycles = 4e9;  ///< bucket capacity (and initial fill)
  double weight = 1.0;        ///< weighted-fair dequeue share
  /// Longest sim-cycle stall a job may spend waiting for the bucket to
  /// refill before it is rejected outright. 0 (the default) keeps the
  /// original semantics: an over-quota job is rejected immediately with a
  /// retry-after hint. When positive and the refill wait fits, the job is
  /// admitted instead, the wait lands in Decision::quota_wait_cycles, and
  /// the critical-path analyzer attributes it as quota-wait time.
  double max_wait_cycles = 0.0;
};

struct AdmissionConfig {
  /// Bounded queue: jobs virtually waiting at an arrival beyond this depth
  /// are rejected (every priority class — bounding memory beats priority).
  std::size_t max_queue_depth = 64;
  /// Virtual server speed: estimated cost-cycles retired per sim-cycle of
  /// stream time. 1.0 = the queue drains in real (sim) time.
  double service_rate = 1.0;
  /// Total estimated footprint the virtual queue may hold (the engine's
  /// device budget by default).
  double memory_budget_bytes = static_cast<double>(baselines::kDeviceBytes);
  /// Shed ladder thresholds on the estimated backlog (cost-cycles of
  /// admitted-but-not-virtually-finished work). Crossing `degrade` trips
  /// the existing degradation ladder for admitted jobs (auto_tune and las
  /// are pre-disabled) before any shedding; `shed_low` starts shedding
  /// Priority::kLow; `shed_normal` extends shedding to kNormal.
  double degrade_backlog_cycles = 4e9;
  double shed_low_backlog_cycles = 8e9;
  double shed_normal_backlog_cycles = 16e9;
  /// Jobs dispatched to the engine per run_batch wave.
  std::size_t wave_size = 4;
  /// Quota applied to tenants without an explicit entry.
  TenantQuota default_quota;
  /// Per-tenant overrides, keyed by BatchJob::tenant.
  std::map<std::string, TenantQuota> quotas;
};

/// The admission verdict for one job, in input order.
struct Decision {
  enum class Outcome {
    kAdmitted,
    kRejectedQueueFull,
    kRejectedQuota,
    kRejectedDeadline,
    kRejectedMemory,
    kShed,
  };
  Outcome outcome = Outcome::kAdmitted;
  /// Ok for admitted jobs; kResourceExhausted (message carrying the reason
  /// and the retry-after hint) otherwise.
  rt::Status status;
  /// Sim-cycles after which a resubmission of this job would plausibly be
  /// admitted; 0 when retrying cannot help (e.g. an infeasible deadline).
  double retry_after_cycles = 0.0;
  double est_cost_cycles = 0.0;
  double est_bytes = 0.0;
  /// Estimated virtual queue wait (admitted jobs only).
  double queue_wait_cycles = 0.0;
  /// Token-bucket refill stall taken under TenantQuota::max_wait_cycles
  /// (admitted jobs only; 0 when the bucket had tokens on arrival).
  double quota_wait_cycles = 0.0;
  /// Shed-ladder level observed at this job's arrival (0 = normal).
  int shed_level = 0;
};

/// One serve() call's admission counters, tallied in arrival order. Every
/// value is a function of sim-time and job content only. serve() records
/// each of them in obs::TelemetryRegistry (DESIGN.md §13), where counts
/// add and the two peaks hold their maximum across calls.
struct OverloadStats {
  std::uint64_t submitted = 0;            ///< jobs offered to admission
  std::uint64_t admitted = 0;             ///< jobs that reached the engine
  std::uint64_t rejected_queue_full = 0;  ///< bounded-queue rejections
  std::uint64_t rejected_quota = 0;       ///< tenant token-bucket rejections
  std::uint64_t rejected_deadline = 0;    ///< deadline-infeasible rejections
  std::uint64_t rejected_memory = 0;      ///< footprint-budget rejections
  std::uint64_t shed_low = 0;             ///< Priority::kLow jobs shed
  std::uint64_t shed_normal = 0;          ///< Priority::kNormal jobs shed
  std::uint64_t shed_high = 0;            ///< always 0 today (kHigh never sheds)
  std::uint64_t overload_transitions = 0; ///< shed-ladder level increases
  std::uint64_t peak_queue_depth = 0;     ///< max virtual queue depth
  double peak_backlog_cycles = 0.0;       ///< max estimated backlog
  double queue_wait_cycles = 0.0;         ///< summed estimated queue waits
};

/// Everything one serve() call produced. `results` is 1:1 with the input
/// jobs: rejected/shed jobs carry the rejection Status and never reached
/// the engine.
struct ServeResult {
  std::vector<baselines::RunResult> results;
  std::vector<Decision> decisions;
  /// The request IDs the stream ran under (caller-supplied or synthesized
  /// "req-s<serve>-<i>"), stamped on every job including rejected ones so
  /// journal events always carry a non-empty id.
  std::vector<std::string> request_ids;
  /// This call's admission counters (also recorded in the telemetry
  /// registry, which accumulates them across calls).
  OverloadStats stats;
};

/// Analytic per-job cost estimate in sim-cycles, a deterministic function
/// of graph size, feature width and model kind. Deliberately cheap and
/// rough: the controller replaces it with measured cycles (fingerprint-
/// keyed) after the first completed wave. Exposed so load generators can
/// derive arrival spacing without warm-up runs.
double estimate_job_cost(const BatchJob& job);

/// Analytic footprint estimate in bytes for the memory-budget check.
double estimate_job_bytes(const BatchJob& job);

/// The controller's cost-cache key for a job: "model/<fingerprint hex>",
/// the same format the engine's circuit breaker uses. Empty when the job
/// has no dataset or no run request.
std::string cost_key(const BatchJob& job);

/// Extracts the "(retry_after_cycles=N)" hint a rejection Status message
/// carries; negative when absent.
double parse_retry_after(std::string_view message);

/// Overload protection in front of OptimizedEngine::run_batch.
///
/// One controller owns one stream: arrival stamps must be non-decreasing
/// across serve() calls, and the virtual queue, token buckets, weighted-
/// fair clocks and shed-ladder level persist between calls. All methods
/// are meant for a single serving thread — determinism comes from order,
/// not locks (run_batch itself fans out internally).
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg = {});

  /// Admits/rejects every job in arrival (input) order, dispatches the
  /// admitted ones to `eng.run_batch` in weighted-fair order (waves of
  /// cfg.wave_size), and folds journal events, telemetry and overload
  /// stats in deterministic passes.
  ServeResult serve(engine::OptimizedEngine& eng, std::span<const BatchJob> jobs);

  /// The estimate serve() would use right now: the fingerprint-keyed
  /// measured cost when cached, the analytic estimate otherwise.
  double estimate_cost_cycles(const BatchJob& job) const;

  /// Current shed-ladder level (0 = normal, 1 = pre-degrading, 2 =
  /// shedding low, 3 = shedding low+normal).
  int shed_level() const { return shed_level_; }

  std::size_t cost_cache_size() const { return cost_cache_.size(); }

  const AdmissionConfig& config() const { return cfg_; }

 private:
  const TenantQuota& quota_for(const std::string& tenant) const;

  AdmissionConfig cfg_;
  /// Monotonic serve() counter, seed for synthesized request IDs.
  std::uint64_t serve_seq_ = 0;

  /// Measured cost per cost_key (actual total_cycles of the most recent
  /// successful run), replacing the analytic estimate once warm.
  std::map<std::string, double> cost_cache_;

  /// Per-tenant token bucket state.
  struct Bucket {
    double tokens = 0.0;
    double last_refill_cycles = 0.0;
    bool initialized = false;
  };
  std::map<std::string, Bucket> buckets_;

  /// Per-tenant weighted-fair virtual finish time.
  std::map<std::string, double> tenant_vft_;

  /// Virtual single-server queue: the sim-time at which the server drains
  /// everything admitted so far, plus the per-job (virtual completion,
  /// estimated bytes) entries still outstanding.
  double busy_until_cycles_ = 0.0;
  struct QueuedJob {
    double completion_cycles = 0.0;
    double bytes = 0.0;
  };
  std::deque<QueuedJob> queue_;
  double queued_bytes_ = 0.0;

  int shed_level_ = 0;
};

}  // namespace gnnbridge::serve
