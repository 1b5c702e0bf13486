// Process-wide telemetry registry (DESIGN.md §13): the one counter store.
//
// Named counters, gauges and log-bucketed histograms, aggregated across
// the process: run_batch's job-order fold, serve()'s telemetry pass and
// the shard-recovery flush of every run record here, where the metrics
// sink's `runs` array is the per-run view. Determinism contract: names
// live in ordered maps (snapshot order is lexicographic, never insertion
// or hash order), histogram buckets are fixed powers of 2^(1/4), and no
// engine recording happens on a pool worker, only in sequential code — so
// the exported telemetry block, the Prometheus exposition and the stats
// table are byte-identical at any host thread count. Bulk observation
// from parallel code goes through observe_parallel, which shards per
// chunk and folds shards in chunk index order (the same discipline as the
// par:: counters).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "par/thread_pool.hpp"

namespace gnnbridge::prof {
class JsonWriter;
}  // namespace gnnbridge::prof

namespace gnnbridge::obs {

/// Point-in-time copy of the whole registry, names sorted lexicographically.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Singleton name -> instrument store. Thread-safe; every mutation takes
/// one mutex (telemetry recording is batched — per run_batch fold, not per
/// kernel — so contention is negligible).
class TelemetryRegistry {
 public:
  static TelemetryRegistry& instance();

  void counter_add(std::string_view name, std::uint64_t delta);
  /// Raises the named gauge to `value` when that is higher (the first
  /// write creates it): every gauge is a peak that holds across calls.
  void gauge_max(std::string_view name, double value);
  void observe(std::string_view name, double value);
  /// Merges a pre-aggregated histogram (an observe_parallel fold result)
  /// into the named histogram.
  void merge_histogram(std::string_view name, const LogHistogram& shard);

  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  HistogramSnapshot histogram_snapshot(std::string_view name) const;

  RegistrySnapshot snapshot() const;
  void clear();

  /// Number of distinct instrument names of each kind.
  std::size_t counter_count() const;
  std::size_t gauge_count() const;
  std::size_t histogram_count() const;

 private:
  TelemetryRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

/// Serializes a snapshot as the metrics schema v5 `telemetry` object onto
/// an open JsonWriter (the writer must be positioned after a key).
void write_telemetry_json(prof::JsonWriter& w, const RegistrySnapshot& snap);

/// Deterministic bulk observation: values(i) for i in [0, n) land in the
/// named histogram as if observed sequentially — per-chunk shards merged
/// in chunk index order, byte-identical at any host thread count.
template <typename Values>
void observe_parallel(std::string_view name, std::size_t n, Values&& values,
                      std::size_t grain = par::kDefaultGrain) {
  if (n == 0) return;
  std::vector<LogHistogram> shards = par::sharded_chunks<LogHistogram>(
      n, grain, [&](LogHistogram& shard, std::size_t /*chunk*/, std::size_t begin,
                    std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) shard.observe(values(i));
      });
  LogHistogram folded;
  for (const LogHistogram& shard : shards) folded.merge(shard);
  TelemetryRegistry::instance().merge_histogram(name, folded);
}

}  // namespace gnnbridge::obs
