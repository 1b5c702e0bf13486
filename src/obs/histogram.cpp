#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace gnnbridge::obs {

namespace {

// Quarter-octave boundaries inside one frexp mantissa octave [0.5, 1):
// 2^-0.75, 2^-0.5, 2^-0.25. Spelled as literals (not computed through
// libm) so bucket selection is bit-identical on every platform.
constexpr double kQuarterCut[3] = {0.5946035575013605, 0.7071067811865476,
                                   0.8408964152537145};
// Upper bounds of the four sub-buckets, as mantissas of ldexp: the
// sub-bucket q of octave o tops out at kQuarterUpper[q] * 2^o.
constexpr double kQuarterUpper[4] = {0.5946035575013605, 0.7071067811865476,
                                     0.8408964152537145, 1.0};

}  // namespace

int LogHistogram::bucket_of(double v) {
  if (std::isnan(v)) return 0;
  if (v <= 0.0) return 0;
  if (std::isinf(v)) return kBuckets - 1;
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  if (exp < 1) return 0;                 // v < 1 underflows into bucket 0
  if (exp > 64) return kBuckets - 1;     // v >= 2^64 overflows into the top
  int q = 3;
  if (m < kQuarterCut[0]) {
    q = 0;
  } else if (m < kQuarterCut[1]) {
    q = 1;
  } else if (m < kQuarterCut[2]) {
    q = 2;
  }
  return (exp - 1) * 4 + q;
}

double LogHistogram::bucket_upper(int b) {
  b = std::clamp(b, 0, kBuckets - 1);
  // Bucket b holds octave b/4 + 1 of frexp exponents: values in
  // [2^(b/4), 2^(b/4 + 1)), quartered by mantissa.
  return std::ldexp(kQuarterUpper[b % 4], b / 4 + 1);
}

void LogHistogram::observe(double v) {
  if (std::isnan(v)) v = 0.0;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++counts_[static_cast<std::size_t>(bucket_of(v))];
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cumulative += counts_[static_cast<std::size_t>(b)];
    if (cumulative >= rank) {
      // The bucket bound is an upper estimate; the exact extrema tighten it
      // so a single-valued histogram reports the value itself.
      return std::clamp(bucket_upper(b), min_, max_);
    }
  }
  return max_;
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max();
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[static_cast<std::size_t>(b)] > 0) {
      s.buckets.emplace_back(bucket_upper(b), counts_[static_cast<std::size_t>(b)]);
    }
  }
  return s;
}

}  // namespace gnnbridge::obs
