// Machine-readable metrics sink.
//
// Collects per-run simulator counters (`sim::RunStats` with per-kernel
// `KernelStats`) and serializes them to a stable, versioned JSON schema —
// the machine-readable twin of the tables every bench binary prints. Every
// bench binary and `gnnbridge_cli profile` feed this sink; when the
// GNNBRIDGE_METRICS_JSON environment variable names a path, the collected
// records are written there at process exit. The schema is locked by a
// golden test (tests/prof/metrics_json_test.cpp) and validated by
// tools/check_metrics_schema.py; bump kMetricsSchemaVersion on any
// incompatible change.
//
// Schema (gnnbridge-metrics, version 12):
//   {
//     "schema": "gnnbridge-metrics",
//     "schema_version": 12,
//     "experiment": "<banner id>",
//     "scale": 0.25,
//     "meta": {"git_sha":"abc1234", "timestamp":"2026-01-01T00:00:00Z",
//              "hostname":"...", "scale_env":"0.25", "threads":8},
//     (meta.threads is the host thread-pool width: all simulated counters
//      are byte-identical at any value)
//     "runs": [{
//       "label": "...", "model": "...", "backend": "...", "dataset": "...",
//       "ms": 1.5, "oom": false,
//       "device": {"num_sms":80, "max_blocks_per_sm":8, "clock_ghz":1.38,
//                  "l2_bytes":6291456, "line_bytes":64,
//                  "flops_per_cycle_per_block":16,
//                  "l2_hit_cycles_per_line":22, "dram_cycles_per_line":63,
//                  "kernel_launch_cycles":5000,
//                  "framework_overhead_cycles":0},
//       "totals": {"cycles":..., "launches":..., "flops":..., "l2_hits":...,
//                  "l2_misses":..., "l2_hit_rate":..., "dram_bytes":...,
//                  "gflops":..., "issued_flops":..., "global_syncs":...,
//                  "atomic_cycles":..., "atomic_bytes":...,
//                  "adapter_cycles":..., "adapter_bytes":...,
//                  "pad_flops":..., "copy_flops":..., "tile_flops":...,
//                  "imbalance":..., "ghost_bytes":..., "exchange_syncs":...,
//                  "exchange_cycles":..., "shards":...},
//       "kernels": [{"name":..., "phase":..., "blocks":..., "cycles":...,
//                    "makespan":..., "balanced":..., "l2_hits":...,
//                    "l2_misses":..., "l2_hit_rate":..., "dram_bytes":...,
//                    "flops":..., "issued_flops":...,
//                    "mean_active_blocks":..., "atomic_cycles":...,
//                    "atomic_bytes":..., "adapter_cycles":...,
//                    "adapter_bytes":..., "pad_flops":..., "copy_flops":...,
//                    "tile_flops":..., "imbalance":...}]
//     }],
//     "gap_report": [{"label":..., "model":..., "backend":..., "dataset":...,
//                     "total_cycles":..., "attributed_cycles":...,
//                     "locality":{...}, "imbalance":{...},
//                     "launch_overhead":{...}, "synchronization":{...},
//                     "redundancy":{...}, "inter_shard_traffic":{...}}],
//     "degradations": [{"seam":"las_cluster", "knob":"las",
//                       "action":"las->natural_order", "detail":"...",
//                       "injected":true}],
//     "telemetry": {"counters":[{"name":"serve.jobs","value":...}],
//                   "histograms":[{"name":"serve.job_cycles","count":...,
//                                  "sum":..., "min":..., "max":...,
//                                  "p50":..., "p90":..., "p99":...,
//                                  "buckets":[{"le":..., "count":...}]}]}
//   }
// `degradations` has one entry per optimization knob the engine (or the
// sink itself) disabled after a stage failure (DESIGN.md §10); `gap_report`
// one gap attribution per run (DESIGN.md §9). The partitioned-execution
// counters in `totals` are zero (shards=1) for unsharded runs (DESIGN.md
// §16). `telemetry` is a snapshot of the process-wide
// obs::TelemetryRegistry (DESIGN.md §13): names sort lexicographically and
// histogram buckets are fixed powers of 2^(1/4), so the block is
// byte-identical at any host thread count. It is always present, with
// empty arrays when nothing was recorded; `clear()` also clears the
// registry, keeping in-process determinism byte-compares valid. CHANGES.md
// records what each schema version changed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "rt/degrade.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"

namespace gnnbridge::prof {

inline constexpr const char* kMetricsSchemaName = "gnnbridge-metrics";
inline constexpr int kMetricsSchemaVersion = 12;

/// Provenance stamped into every metrics document (`meta` block). The sink
/// collects defaults lazily at serialization time; tests pin fixed values
/// via `MetricsSink::set_meta` so golden documents stay byte-stable.
struct MetaInfo {
  std::string git_sha = "unknown";   ///< short SHA, or GNNBRIDGE_GIT_SHA
  std::string timestamp = "unknown"; ///< ISO-8601 UTC
  std::string hostname = "unknown";
  std::string scale_env;             ///< raw GNNBRIDGE_SCALE ("" when unset)
  int threads = 1;                   ///< host pool width (par::max_threads)
};

/// Collects the default provenance from the environment (git, clock,
/// hostname, GNNBRIDGE_SCALE).
MetaInfo collect_meta();

/// One recorded run: a labelled RunStats plus the identifying metadata.
struct RunRecord {
  std::string label;
  std::string model;
  std::string backend;
  std::string dataset;
  double ms = 0.0;
  bool oom = false;
  sim::RunStats stats;
  sim::DeviceSpec spec;
};

/// Process-wide collector. Thread-safe. Records are kept regardless of the
/// environment; the at-exit file write only happens when
/// GNNBRIDGE_METRICS_JSON is set (registered on `configure`/first
/// `record`).
class MetricsSink {
 public:
  static MetricsSink& instance();

  /// Names the experiment (the bench banner id) and the dataset scale for
  /// the emitted document, and arms the at-exit env write.
  void configure(std::string experiment, double scale);

  /// Pins the `meta` provenance block. Without this, `to_json` collects
  /// the defaults (`collect_meta`) on first serialization.
  void set_meta(MetaInfo meta);

  void record(RunRecord rec);

  /// Records a degradation event (engine knob disabled after a stage
  /// failure); serialized into the top-level `degradations` array.
  void record_degradation(rt::DegradationEvent event);

  std::size_t size() const;
  std::size_t degradation_count() const;
  std::vector<rt::DegradationEvent> degradations() const;
  void clear();

  /// Serializes everything recorded so far.
  std::string to_json() const;

  /// Writes `to_json()` to `path`. The write itself is a fault seam
  /// (`metrics_write`): an injected failure is recorded as a degradation
  /// (knob `metrics_sink`, action `retry_write`) and the write retried, so
  /// the emitted file still carries the event. Warns on stderr and
  /// returns a structured error when the retries run out or real I/O
  /// fails.
  rt::Status write_file(const std::string& path) const;

  /// The path GNNBRIDGE_METRICS_JSON points at, or nullptr.
  static const char* env_path();

 private:
  MetricsSink() = default;
  void arm_env_write_locked();

  mutable std::mutex mu_;
  std::string experiment_ = "unnamed";
  double scale_ = 0.0;
  mutable MetaInfo meta_;
  mutable bool meta_set_ = false;
  std::vector<RunRecord> records_;
  std::vector<rt::DegradationEvent> degradations_;
  bool armed_ = false;
};

}  // namespace gnnbridge::prof
