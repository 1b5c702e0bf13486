// Deterministic log-bucketed histogram.
//
// The aggregation primitive of the telemetry registry (DESIGN.md §13):
// sim-cycle latencies, attempt counts and queue depths land in
// quarter-octave log2 buckets whose boundaries are fixed powers of 2^(1/4),
// so two histograms built from the same observations — in any order —
// hold identical bucket counts. Bucket selection uses frexp plus three
// exact mantissa thresholds, never libm log2, so the mapping is the same
// on every platform. Quantiles are bucket upper bounds (clamped to the
// tracked min/max), which makes p50/p90/p99 a pure function of the bucket
// counts.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gnnbridge::obs {

/// Rendered view of one histogram: totals, exact extrema, the non-empty
/// buckets as (upper_bound, count) pairs, and the three headline
/// quantiles. What the JSON exporter, the Prometheus writer and the stats
/// CLI all consume.
///
/// Empty-histogram contract: with count == 0, every headline statistic —
/// sum, min, max, p50, p90, p99 — is exactly 0 (never NaN, never a
/// sentinel) and `buckets` is empty. All exporters render those zeros
/// as-is; consumers distinguish "no data" from "all-zero data" by
/// `count`, not by the statistics.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Non-empty buckets in ascending bucket order; counts are per-bucket
  /// (not cumulative — the Prometheus writer accumulates).
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

/// Fixed-layout log2 histogram: 64 octaves x 4 quarter-octave sub-buckets
/// covering [1, 2^64); underflow clamps into the first bucket, overflow
/// into the last. Value type is double (sim-cycles are doubles); negative
/// and non-finite observations clamp to the first/last bucket so a
/// poisoned measurement can never corrupt the layout.
class LogHistogram {
 public:
  static constexpr int kBuckets = 256;

  /// Bucket index for a value; total order, stable across platforms.
  static int bucket_of(double v);

  /// Upper bound of bucket `b`: 2^(b/4 + (b%4 + 1)/4), rendered through
  /// ldexp so every boundary is exactly representable.
  static double bucket_upper(int b);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Upper bound of the bucket holding the q-quantile observation
  /// (rank ceil(q*count)), clamped to [min, max]. 0 when empty.
  double quantile(double q) const;

  HistogramSnapshot snapshot() const;

  void clear() { *this = LogHistogram{}; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> counts_{};
};

}  // namespace gnnbridge::obs
