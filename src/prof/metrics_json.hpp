// Machine-readable metrics sink.
//
// Collects per-run simulator counters (`sim::RunStats` with per-kernel
// `KernelStats`) and serializes them to a stable, versioned JSON schema —
// the machine-readable twin of the tables every bench binary prints. Every
// bench binary and `gnnbridge_cli profile` feed this sink; when the
// GNNBRIDGE_METRICS_JSON environment variable names a path, the collected
// records are written there at process exit. `load_metrics_file` reads a
// document back for `gnnbridge_cli analyze`, `compare`, `stats` and
// `check`. Bump kMetricsSchemaVersion on any incompatible change;
// CHANGES.md records what each version changed.
//
// The schema (gnnbridge-metrics, version 12) is the field lists: one per
// record, each visiting its keys in document order, drive both the writer
// and the strict reader (prof/fields.hpp). The document, meta, run,
// device, totals, kernel, gap_report entry and degradation lists are in
// metrics_json.cpp; the telemetry counter, histogram and bucket lists in
// obs/registry.hpp. The golden tests (tests/prof/metrics_json_test.cpp,
// tests/prof/gap_report_test.cpp) lock the written bytes independently.
//
// `degradations` has one entry per optimization knob the engine (or the
// sink itself) disabled after a stage failure (DESIGN.md §10); `gap_report`
// one gap attribution per run (DESIGN.md §9). The partitioned-execution
// counters in `totals` are zero (shards=1) for unsharded runs (DESIGN.md
// §16). `meta.threads` is the host thread-pool width: all simulated
// counters are byte-identical at any value. `telemetry` is a snapshot of
// the sink's own obs::TelemetryRegistry (DESIGN.md §13): names sort
// lexicographically and histogram buckets are fixed powers of 2^(1/4), so
// the block is byte-identical at any host thread count. It is always
// present, with empty arrays when nothing was recorded; `clear()` also
// clears the registry, keeping in-process determinism byte-compares valid.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "prof/gap_report.hpp"
#include "rt/degrade.hpp"
#include "rt/status.hpp"
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

/// One whole gnnbridge-metrics document: what MetricsSink writes and
/// load_metrics_file reads back.
struct MetricsDocument {
  std::string schema = kMetricsSchemaName;
  int schema_version = kMetricsSchemaVersion;
  std::string experiment = "unnamed";
  double scale = 0.0;
  MetaInfo meta;
  std::vector<RunRecord> runs;
  std::vector<GapBreakdown> gap_report;  ///< one attribution per run
  std::vector<rt::DegradationEvent> degradations;
  obs::RegistrySnapshot telemetry;
};

/// Reads a metrics document strictly: every record must hold exactly its
/// field list's keys, in order and of the listed types, with every value
/// invariant met; only kMetricsSchemaVersion is accepted. kDataLoss naming
/// the first bad field (e.g. `runs[0].kernels[2].l2_misses: missing key`)
/// otherwise, kNotFound when the file cannot be opened.
rt::Result<MetricsDocument> load_metrics_file(const std::string& path);

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
  std::vector<rt::DegradationEvent> degradations() const;
  /// Clears the runs, the degradations and the telemetry registry.
  void clear();

  /// The telemetry registry this sink's documents snapshot.
  obs::TelemetryRegistry& telemetry() { return telemetry_; }

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
  /// Everything recorded; `to_json` fills in the meta defaults once and
  /// refreshes `gap_report` and `telemetry` on every serialization.
  mutable MetricsDocument doc_;
  mutable bool meta_set_ = false;
  bool armed_ = false;
  obs::TelemetryRegistry telemetry_;
};

}  // namespace gnnbridge::prof
