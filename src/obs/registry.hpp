// Telemetry registry (DESIGN.md §13): the one counter store.
//
// Named counters and log-bucketed histograms, aggregated across runs. The
// metrics sink owns the process's registry (prof::MetricsSink::telemetry):
// the engine's publish step records there (each run's recovery, and
// run_batch's serving counters in its job-order fold), the sink's
// document snapshots it, and the sink's `runs`
// array is the per-run view. Determinism contract: names live in ordered
// maps (snapshot order is lexicographic, never insertion or hash order),
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

namespace gnnbridge::obs {

/// Point-in-time copy of the whole registry, names sorted lexicographically.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Name -> instrument store. Thread-safe: direct runs on different
/// threads may publish recovery counters at once. Every mutation takes one
/// mutex (telemetry recording is batched — per run_batch fold, not per
/// kernel — so contention is negligible).
class TelemetryRegistry {
 public:
  void counter_add(std::string_view name, std::uint64_t delta);
  void observe(std::string_view name, double value);

  std::uint64_t counter_value(std::string_view name) const;
  HistogramSnapshot histogram_snapshot(std::string_view name) const;

  RegistrySnapshot snapshot() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

/// A counter's value in `snap`; 0 when absent (instruments appear once
/// first recorded).
std::uint64_t counter_value(const RegistrySnapshot& snap, std::string_view name);

/// True when no counter name appears twice in `snap`.
bool unique_counter_names(const RegistrySnapshot& snap);

// Field lists of the metrics document's `telemetry` object, for
// prof::FieldWriter/FieldReader (prof/fields.hpp). The checks are the
// invariants every exported histogram and the run_batch and shard-recovery
// accounting hold.

inline constexpr auto counter_fields = [](auto& v, auto& c) {
  v.field("name", c.first);
  v.field("value", c.second);
};

inline constexpr auto bucket_fields = [](auto& v, auto& b) {
  v.field("le", b.first);
  v.field("count", b.second);
};

inline constexpr auto histogram_fields = [](auto& v, auto& entry) {
  auto& [name, h] = entry;
  v.field("name", name);
  v.field("count", h.count);
  v.field("sum", h.sum);
  v.field("min", h.min);
  v.field("max", h.max);
  v.field("p50", h.p50);
  v.field("p90", h.p90);
  v.field("p99", h.p99);
  v.array("buckets", h.buckets, bucket_fields);
  std::uint64_t in_buckets = 0;
  for (const auto& b : h.buckets) in_buckets += b.second;
  v.check(in_buckets == h.count, "bucket counts do not sum to count");
  v.check(h.count == 0 || (h.min <= h.p50 && h.p50 <= h.max), "p50 outside [min, max]");
  v.check(h.count > 0 || (h.sum == 0.0 && h.min == 0.0 && h.max == 0.0 && h.p50 == 0.0 &&
                          h.p90 == 0.0 && h.p99 == 0.0),
          "empty histogram must report all-zero statistics");
  v.check(!name.ends_with("_cycles") || (h.sum >= 0.0 && h.min >= 0.0), "negative cycles");
};

inline constexpr auto telemetry_fields = [](auto& v, auto& snap) {
  v.array("counters", snap.counters, counter_fields);
  v.array("histograms", snap.histograms, histogram_fields);
  v.check(unique_counter_names(snap), "duplicate counter name");
  v.check(counter_value(snap, "serve.attempts") >= counter_value(snap, "serve.retries"),
          "serve.attempts < serve.retries");
  v.check(counter_value(snap, "recovery.shards_reexecuted") <=
              counter_value(snap, "recovery.shard_retries"),
          "recovery.shards_reexecuted > recovery.shard_retries");
};

}  // namespace gnnbridge::obs
