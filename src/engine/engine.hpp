// The optimized execution engine ("Ours" in Figure 7).
//
// Composes the four optimizations of Section 4 over the same kernels,
// graphs and weights the baselines use:
//   * locality-aware task scheduling — offline cluster-adjacent task order;
//   * neighbor grouping — bounded tasks with atomic merge;
//   * data-visible-range adapter + linear property — hand-written fused
//     kernel pipelines: the layer bodies of baselines/pipeline.hpp, which
//     the DGL-style backend runs in their Listing-1 variant. The engine
//     does not call core::fuse, whose plans differ from what it launches
//     (3 kernels per whole-row GAT layer where the engine launches 5);
//   * sparse fetching + redundancy bypassing — for GraphSAGE-LSTM's
//     center-neighbor neural operations.
// Every knob is independently switchable, which is what the ablation
// benchmarks (Figures 8-11, Table 6) sweep.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "baselines/backend.hpp"
#include "core/balance/neighbor_grouping.hpp"
#include "core/locality/schedule.hpp"
#include "core/tuner/tuner.hpp"
#include "graph/fingerprint.hpp"
#include "models/gcn_grad.hpp"
#include "rt/breaker.hpp"
#include "rt/deadline.hpp"
#include "rt/degrade.hpp"

namespace gnnbridge::shard {
struct Partition;
}  // namespace gnnbridge::shard

namespace gnnbridge::engine {

namespace detail {
struct AttemptPlan;
struct RunContext;
}  // namespace detail

using baselines::Backend;
using baselines::Dataset;
using baselines::ExecMode;
using baselines::GatRun;
using baselines::GcnRun;
using baselines::RunResult;
using baselines::SageLstmRun;
using graph::EdgeId;
using graph::NodeId;

/// GraphSAGE-LSTM optimization levels (Figure 11's three bars).
enum class SageOptLevel {
  kBase,              ///< expansion + per-step transformation (DGL-like)
  kSparseFetch,       ///< gather folded into the transform's loads
  kSparseFetchBypass, ///< + transformation hoisted out of the step loop
};

/// Engine configuration. Defaults are the full optimization stack.
struct EngineConfig {
  /// SIMD lanes per feature row (the tunable thread mapping).
  int lanes = 32;
  /// Neighbor grouping bound; 0 = heuristic (average degree rounded up to
  /// a multiple of 16).
  EdgeId group_bound = 0;
  bool use_neighbor_grouping = true;
  bool use_las = true;
  /// Data-visible-range adapter (kernel fusion).
  bool use_adapter = true;
  /// Linear-property postponement of the softmax division.
  bool use_linear = true;
  SageOptLevel sage_level = SageOptLevel::kSparseFetchBypass;
  /// Precomputed LAS order (offline result reused across runs); when null
  /// and use_las is set, the engine computes it on the fly.
  const std::vector<NodeId>* las_order = nullptr;
  /// Run the online tuner per (graph, feature length) before executing:
  /// lanes and grouping bound come from sampled probes instead of the
  /// static fields above (paper §4.4). The tuned configuration is cached
  /// per graph.
  bool auto_tune = false;
  /// Partitioned execution (DESIGN.md §16): number of edge-cut shards the
  /// GCN/GAT pipelines split the graph across, each simulated on its own
  /// device with per-layer ghost-feature exchanges. 1 = the ordinary
  /// single-device path; values are clamped to the node count. Sharded
  /// outputs are bit-identical to the unsharded engine; the exchange cost
  /// surfaces as the inter-shard-traffic gap. Models other than GCN/GAT
  /// run unsharded regardless.
  int shards = 1;
  /// Per-(model, graph) circuit breaker for run_batch (DESIGN.md §12).
  rt::BreakerConfig breaker;
};

/// The optimized engine, with graceful degradation (DESIGN.md §10): every
/// public run_* entry point validates its inputs (preflight), executes the
/// optimized pipeline, and — when an optimization stage fails (injected
/// via GNNBRIDGE_FAULT_PLAN or real) — disables the failed knob, records a
/// structured degradation event through prof::MetricsSink, and retries.
/// Only unrecoverable failures (invalid inputs, ladder exhausted) surface
/// as a non-ok RunResult::status; nothing throws across this API.
class OptimizedEngine final : public Backend {
 public:
  explicit OptimizedEngine(EngineConfig cfg = {}) : cfg_(cfg) {}

  std::string_view name() const override { return "Ours"; }
  bool supports(models::ModelKind) const override { return true; }

  RunResult run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
  RunResult run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
  RunResult run_sage_lstm(const Dataset& data, const SageLstmRun& run, ExecMode mode,
                          const sim::DeviceSpec& spec) override;
  RunResult run_sage_pool(const Dataset& data, const baselines::SagePoolRun& run, ExecMode mode,
                          const sim::DeviceSpec& spec) override;
  RunResult run_multihead_gat(const Dataset& data, const baselines::MultiHeadGatRun& run,
                              ExecMode mode, const sim::DeviceSpec& spec) override;

  const EngineConfig& config() const { return cfg_; }

  /// Outcome of one training step.
  struct TrainResult {
    RunResult run;
    float loss = 0.0f;
  };

  /// One simulated GCN training step: forward (with activation caching),
  /// MSE loss against `target`, backward, and an SGD update of `params`
  /// (in place, ExecMode::kFull only). The backward aggregation reuses the
  /// forward kernels — the symmetric GCN normalization is self-adjoint —
  /// so LAS/NG/fusion apply to training unchanged. `grads_out`, when
  /// non-null, receives the computed gradients (kFull only).
  TrainResult train_gcn_step(const Dataset& data, const models::GcnConfig& cfg,
                             models::GcnParams& params, const models::Matrix& x,
                             const models::Matrix& target, float lr, ExecMode mode,
                             const sim::DeviceSpec& spec,
                             models::GcnGrads* grads_out = nullptr);

  /// The task list this configuration produces for a graph — the
  /// composition of neighbor grouping and the LAS order, resolved like an
  /// attempt's plan but never tuned (tuned knobs are per feature width).
  /// Exposed for the kernel-level tests.
  core::GroupedTasks build_tasks(const graph::Csr& csr) const;

  /// Knobs the degradation ladder has disabled so far, as metric-schema
  /// knob names (rt::kKnob*). Sticky for the engine's lifetime.
  std::vector<std::string> degraded_knobs() const;

  /// One independent run request for run_batch: exactly one of the model
  /// pointers must be set.
  struct BatchJob {
    const Dataset* data = nullptr;
    const GcnRun* gcn = nullptr;
    const GatRun* gat = nullptr;
    const SageLstmRun* sage_lstm = nullptr;
    const baselines::SagePoolRun* sage_pool = nullptr;
    const baselines::MultiHeadGatRun* multihead_gat = nullptr;
    ExecMode mode = ExecMode::kSimulateOnly;
    sim::DeviceSpec spec;
    /// Sim-time budget for the whole job, retries and backoff included;
    /// expiry surfaces as kDeadlineExceeded with RunResult::timed_out set.
    rt::Deadline deadline{};
    /// Run attempts before the job's failure is final (>= 1). Only
    /// retryable failures (rt::classify_for_retry) consume extra attempts.
    int max_attempts = 1;
    /// Optional external cancellation; checked at the same cooperative
    /// checkpoints as the deadline.
    const rt::CancelToken* cancel = nullptr;
    /// Per-job fault plan (rt::FaultInjector plan syntax). Applies to this
    /// job alone — jobs see private shot counters, so a batch behaves
    /// identically at any thread count. Empty = no injected faults (the
    /// process-wide plan is suppressed for the job either way).
    std::string fault_plan{};
    /// Caller-supplied request ID, threaded through spans and the obs::
    /// event journal (DESIGN.md §13). Empty = the engine synthesizes a
    /// deterministic "req-<batch>-<index>" ID. Duplicate caller-supplied
    /// IDs within one batch are disambiguated with "#2"/"#3"... suffixes
    /// in journal/trace output so events stay attributable.
    std::string request_id{};
    /// Optimization knobs (rt::kKnob* names) force-disabled for this job
    /// only, merged with the breaker's half-open degradations in the job's
    /// admission set.
    std::vector<std::string> disable_knobs{};
  };

  /// Runs independent (model, dataset) jobs concurrently on the host
  /// thread pool, sharing this engine's memoized LAS orders and tuned
  /// configurations (the caches are fingerprint-keyed and mutex-guarded).
  /// Results are returned in job order and are identical to running each
  /// job sequentially.
  ///
  /// Resilience (DESIGN.md §12): each job runs under its deadline/cancel
  /// scope with per-job retry and fault isolation; a failing job never
  /// blocks healthy ones. Admission and outcomes flow through a
  /// per-(model, graph-fingerprint) circuit breaker in sequential job
  /// order, and the jobs' serving counters are recorded in
  /// obs::TelemetryRegistry — all byte-identical at any host thread count.
  std::vector<RunResult> run_batch(std::span<const BatchJob> jobs);

  /// The run_batch circuit breaker (observability for tests and the soak
  /// driver).
  const rt::CircuitBreaker& breaker() const { return breaker_; }

  /// Cache observability (tests): number of memoized LAS orders / tuned
  /// configurations. A mutated-then-rerun graph must grow these — the
  /// stale-pointer regression this engine used to have.
  std::size_t las_cache_size() const;
  std::size_t tuned_cache_size() const;
  std::size_t shard_plan_cache_size() const;

 private:
  EngineConfig cfg_;
  /// Per-(model, graph-fingerprint) breaker shared by every run_batch call
  /// on this engine (cross-batch memory of failing pairs). Declared after
  /// cfg_ so it can take its configuration from it.
  mutable rt::CircuitBreaker breaker_{cfg_.breaker};

  /// Monotonic run_batch counter, seed for synthesized request IDs. The
  /// counter is engine-local, so IDs are deterministic per call sequence
  /// regardless of host thread count.
  std::atomic<std::uint64_t> batch_seq_{0};

  /// Key of a cached auto-tune outcome: graph fingerprint, feature length
  /// and whether LAS was allowed — a tune probed without LAS must never
  /// serve an attempt that has it, or the knobs a job gets would depend on
  /// which job tuned first.
  struct TunedKey {
    graph::GraphFingerprint fp;
    tensor::Index feat = -1;
    bool las = true;
    friend bool operator==(const TunedKey& a, const TunedKey& b) {
      return a.fp == b.fp && a.feat == b.feat && a.las == b.las;
    }
  };
  struct TunedKeyHash {
    std::size_t operator()(const TunedKey& k) const {
      return (graph::GraphFingerprintHash{}(k.fp) * 1099511628211ull ^
              static_cast<std::size_t>(k.feat)) * 2 + (k.las ? 1 : 0);
    }
  };

  /// Key for the memoized shard plans: content fingerprint + shard count.
  struct ShardPlanKey {
    graph::GraphFingerprint fp;
    int k = 1;
    friend bool operator==(const ShardPlanKey& a, const ShardPlanKey& b) {
      return a.fp == b.fp && a.k == b.k;
    }
  };
  struct ShardPlanKeyHash {
    std::size_t operator()(const ShardPlanKey& k) const {
      return graph::GraphFingerprintHash{}(k.fp) * 1099511628211ull ^
             static_cast<std::size_t>(k.k);
    }
  };

  // Memoized per-graph artifacts, keyed by content fingerprint so an
  // in-place mutated (or reallocated-at-the-same-address) graph can never
  // alias a stale entry. Guarded by cache_mu_; run_batch jobs share them.
  // LAS orders are held behind shared_ptr and never erased, so the raw
  // pointers handed to a running attempt stay valid across concurrent
  // inserts/rehashes.
  mutable std::mutex cache_mu_;
  mutable std::unordered_map<graph::GraphFingerprint,
                             std::shared_ptr<const std::vector<NodeId>>,
                             graph::GraphFingerprintHash>
      las_cache_;
  mutable std::unordered_map<TunedKey, core::TuneConfig, TunedKeyHash> tuned_cache_;
  // Shard plans are deterministic pure functions of (graph, k); entries are
  // held behind shared_ptr and never erased, so concurrent jobs can keep
  // using a plan across rehashes (same lifetime rule as las_cache_).
  mutable std::unordered_map<ShardPlanKey, std::shared_ptr<const shard::Partition>,
                             ShardPlanKeyHash>
      shard_cache_;
  // Preflight cache: validation is O(N x F); benches rerun identical
  // inputs thousands of times. Keyed by fingerprint + feature pointer.
  mutable std::unordered_map<graph::GraphFingerprint, const void*,
                             graph::GraphFingerprintHash>
      preflight_cache_;

  /// Knobs (detail::Knob bits) the degradation ladder turned off for the
  /// whole engine after a direct run's stage failed. Sticky: a stage that
  /// failed once is not trusted again for this engine's lifetime. Atomic
  /// so concurrent runs can degrade without racing.
  mutable std::atomic<unsigned> degraded_{0};

  /// Resolves the attempt's plan (engine_internal.hpp): the knob set, the
  /// fusion gate, then the LAS order, the tuner, and — for an unsharded
  /// attempt — the grouped task list. The tuner probes on `spec` at width
  /// `feat` (-1 = no tuning). `fusion_gate` labels the fusion_pass gate of
  /// GCN/GAT attempts, the only ones that pass it and may run sharded.
  detail::AttemptPlan resolve_plan(const graph::Csr& csr, detail::RunContext& rc,
                                   tensor::Index feat = -1,
                                   const sim::DeviceSpec* spec = nullptr,
                                   const char* fusion_gate = nullptr) const;
  /// Memoized LAS order for the run's graph (cfg.las_order when set).
  const std::vector<NodeId>* las_order(const graph::Csr& csr, const detail::RunContext& rc) const;
  /// Runs the tuner for `key` with `las` as its LAS order (null = tune
  /// without LAS) and memoizes the outcome. A poisoned probe measurement
  /// degrades auto-tuning and yields nullopt: use the heuristic knobs.
  std::optional<core::TuneConfig> tune(const graph::Csr& csr, const TunedKey& key,
                                       const sim::DeviceSpec& spec,
                                       const std::vector<NodeId>* las,
                                       detail::RunContext& rc) const;

  /// Input validation run before every attempt (cached by identity).
  rt::Status preflight(const Dataset& data, const models::Matrix* features,
                       const graph::GraphFingerprint& fp) const;

  /// One ladder rung: turns `knob` (a detail::Knob bit) off — job-locally
  /// for a batch job, engine-wide otherwise — and records the event. False
  /// when the knob is not configured or already off.
  bool disable_knob(unsigned knob, std::string_view seam, const rt::Status& cause,
                    detail::RunContext& rc) const;

  /// Walks one step down the degradation ladder for the failed seam:
  /// disables the responsible knob, records the event, returns false when
  /// there is nothing left to turn off.
  bool degrade_for(const rt::StageFailure& failure, detail::RunContext& rc) const;

  /// Preflight + attempt + catch-degrade-retry loop shared by every entry
  /// point. `attempt` returns RunResult or TrainResult.
  template <typename Fn>
  auto run_guarded(const Dataset& data, const models::Matrix* features, std::string_view what,
                   detail::RunContext& rc, Fn&& attempt) -> decltype(attempt());

  /// Runs one request (exactly one model pointer set) under `rc`: the body
  /// of every public run_* call and of every run_batch attempt.
  RunResult run_request(const BatchJob& job, detail::RunContext& rc);

  RunResult gcn_attempt(const Dataset& data, const GcnRun& run, ExecMode mode,
                        const sim::DeviceSpec& spec, detail::RunContext& rc);
  RunResult gat_attempt(const Dataset& data, const GatRun& run, ExecMode mode,
                        const sim::DeviceSpec& spec, detail::RunContext& rc);
  // Partitioned variants (engine_shard.cpp): K simulated devices, per-layer
  // ghost exchange, bit-identical outputs (DESIGN.md §16).
  RunResult gcn_attempt_sharded(const Dataset& data, const GcnRun& run, ExecMode mode,
                                const sim::DeviceSpec& spec, const detail::AttemptPlan& plan,
                                detail::RunContext& rc);
  RunResult gat_attempt_sharded(const Dataset& data, const GatRun& run, ExecMode mode,
                                const sim::DeviceSpec& spec, const detail::AttemptPlan& plan,
                                detail::RunContext& rc);
  /// Memoized partition for (graph, k); computed on miss, never evicted.
  /// Raises rt::StageFailure(kSeamShardPartition) when partitioning fails
  /// (e.g. a corrupt CSR) so run_guarded can surface it.
  std::shared_ptr<const shard::Partition> shard_plan_for(const graph::Csr& csr, int k,
                                                         const detail::RunContext& rc) const;
  RunResult multihead_gat_attempt(const Dataset& data, const baselines::MultiHeadGatRun& run,
                                  ExecMode mode, const sim::DeviceSpec& spec,
                                  detail::RunContext& rc);
  RunResult sage_pool_attempt(const Dataset& data, const baselines::SagePoolRun& run,
                              ExecMode mode, const sim::DeviceSpec& spec, detail::RunContext& rc);
  RunResult sage_lstm_attempt(const Dataset& data, const SageLstmRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec);
  TrainResult train_gcn_attempt(const Dataset& data, models::GcnParams& params,
                                const models::Matrix& x, const models::Matrix& target, float lr,
                                ExecMode mode, const sim::DeviceSpec& spec,
                                models::GcnGrads* grads_out, detail::RunContext& rc);
};

}  // namespace gnnbridge::engine
