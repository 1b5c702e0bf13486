// Process-wide telemetry registry (DESIGN.md §13): the one counter store.
//
// Named counters and log-bucketed histograms, aggregated across the
// process: run_batch's job-order fold and the shard-recovery flush of
// every run record here, where the metrics sink's `runs` array is the
// per-run view. Determinism contract: names live in ordered maps
// (snapshot order is lexicographic, never insertion or hash order),
// histogram buckets are fixed powers of 2^(1/4), and no engine recording
// happens on a pool worker, only in sequential code — so the exported
// telemetry block, the Prometheus exposition and the stats table are
// byte-identical at any host thread count.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace gnnbridge::prof {
class JsonWriter;
}  // namespace gnnbridge::prof

namespace gnnbridge::obs {

/// Point-in-time copy of the whole registry, names sorted lexicographically.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Singleton name -> instrument store. Thread-safe; every mutation takes
/// one mutex (telemetry recording is batched — per run_batch fold, not per
/// kernel — so contention is negligible).
class TelemetryRegistry {
 public:
  static TelemetryRegistry& instance();

  void counter_add(std::string_view name, std::uint64_t delta);
  void observe(std::string_view name, double value);

  std::uint64_t counter_value(std::string_view name) const;
  HistogramSnapshot histogram_snapshot(std::string_view name) const;

  RegistrySnapshot snapshot() const;
  void clear();

  /// Number of distinct instrument names of each kind.
  std::size_t counter_count() const;
  std::size_t histogram_count() const;

 private:
  TelemetryRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

/// Serializes a snapshot as the metrics document's `telemetry` object onto
/// an open JsonWriter (the writer must be positioned after a key).
void write_telemetry_json(prof::JsonWriter& w, const RegistrySnapshot& snap);

}  // namespace gnnbridge::obs
