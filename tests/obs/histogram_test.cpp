// LogHistogram: the deterministic aggregation primitive of the telemetry
// registry (DESIGN.md §13). Pins the quarter-octave bucket mapping and the
// quantile contract (bucket upper bound clamped to the exact extrema).
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace gnnbridge::obs {
namespace {

TEST(LogHistogramTest, BucketMappingPinsTheQuarterOctaveLayout) {
  // Everything below 1 clamps into bucket 0, including garbage.
  EXPECT_EQ(LogHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(-3.0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(0.5), 0);
  EXPECT_EQ(LogHistogram::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0);
  // Everything at or above 2^64 clamps into the top bucket.
  EXPECT_EQ(LogHistogram::bucket_of(std::ldexp(1.0, 64)), LogHistogram::kBuckets - 1);
  EXPECT_EQ(LogHistogram::bucket_of(std::numeric_limits<double>::infinity()),
            LogHistogram::kBuckets - 1);

  // One octave = four buckets: [1, 2) maps to buckets 0..3.
  EXPECT_EQ(LogHistogram::bucket_of(1.0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(1.18), 0);   // < 2^0.25
  EXPECT_EQ(LogHistogram::bucket_of(1.2), 1);    // >= 2^0.25
  EXPECT_EQ(LogHistogram::bucket_of(1.5), 2);    // >= 2^0.5
  EXPECT_EQ(LogHistogram::bucket_of(1.7), 3);    // >= 2^0.75
  EXPECT_EQ(LogHistogram::bucket_of(2.0), 4);
  // Powers of two land on the first bucket of their octave.
  EXPECT_EQ(LogHistogram::bucket_of(1024.0), 40);
}

TEST(LogHistogramTest, BucketUppersAreMonotonicAndContainTheirValues) {
  for (int b = 0; b + 1 < LogHistogram::kBuckets; ++b) {
    EXPECT_LT(LogHistogram::bucket_upper(b), LogHistogram::bucket_upper(b + 1)) << b;
  }
  // Every sampled value sits strictly below its bucket's upper bound, and
  // at or above the previous bucket's.
  for (double v : {1.0, 1.3, 2.0, 7.5, 100.0, 1024.0, 1e6, 1e12, 1e18}) {
    const int b = LogHistogram::bucket_of(v);
    EXPECT_LT(v, LogHistogram::bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GE(v, LogHistogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(LogHistogramTest, SingleObservationReportsItselfAtEveryQuantile) {
  LogHistogram h;
  h.observe(1024.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1024.0);
  EXPECT_EQ(h.max(), 1024.0);
  // The bucket upper bound (~1217.7) clamps to the tracked max.
  EXPECT_EQ(h.quantile(0.5), 1024.0);
  EXPECT_EQ(h.quantile(0.99), 1024.0);
}

TEST(LogHistogramTest, QuantilesAreOrderedAndWithinAQuarterOctave) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 1000.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  // A quantile is the upper bound of the bucket holding the ranked
  // observation: never below the true value, never more than one
  // quarter-octave (2^0.25) above it.
  const double kQuarterOctave = std::pow(2.0, 0.25);
  EXPECT_GE(s.p50, 500.0);
  EXPECT_LE(s.p50, 500.0 * kQuarterOctave);
  EXPECT_GE(s.p90, 900.0);
  EXPECT_LE(s.p90, 900.0 * kQuarterOctave);
  EXPECT_GE(s.p99, 990.0);
  EXPECT_LE(s.p99, 990.0 * kQuarterOctave);
}

TEST(LogHistogramTest, SnapshotBucketsAreAscendingNonEmptyAndSumToCount) {
  LogHistogram h;
  for (double v : {1.0, 1.0, 3.0, 3.0, 3.0, 777.0}) h.observe(v);
  const HistogramSnapshot s = h.snapshot();
  std::uint64_t total = 0;
  double prev_le = 0.0;
  for (const auto& [le, count] : s.buckets) {
    EXPECT_GT(le, prev_le);
    EXPECT_GT(count, 0u);
    prev_le = le;
    total += count;
  }
  EXPECT_EQ(total, s.count);
}

TEST(LogHistogramTest, ClearResetsToEmpty) {
  LogHistogram h;
  h.observe(5.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_TRUE(h.snapshot().buckets.empty());
}

TEST(LogHistogramTest, EmptyHistogramContractIsAllZeros) {
  // The documented empty-histogram contract (histogram.hpp): with
  // count == 0 every headline statistic is exactly 0 — never NaN, never a
  // sentinel — and consumers tell "no data" apart by count alone. The
  // schema validator enforces the same shape on exported documents.
  const HistogramSnapshot snap = LogHistogram().snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p90, 0.0);
  EXPECT_EQ(snap.p99, 0.0);
  EXPECT_TRUE(snap.buckets.empty());
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(LogHistogram().quantile(q), 0.0) << q;
  }
}

}  // namespace
}  // namespace gnnbridge::obs
