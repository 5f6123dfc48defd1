#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace ldpc {

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  LDPC_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1], got " << q);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

void LogLinearHistogram::add(double x) {
  x = x > 0.0 ? x : 0.0;  // negatives and NaN book as 0
  ++counts_[bucket_of(x)];
  ++count_;
  sum_ += x;
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

std::size_t LogLinearHistogram::bucket_of(double x) {
  if (!(x >= std::ldexp(1.0, kMinExp))) return 0;  // also NaN
  if (x >= std::ldexp(1.0, kMinExp + kOctaves)) return kBuckets - 1;
  int e = 0;
  const double m = std::frexp(x, &e);  // x = m * 2^e, m in [0.5, 1)
  const int octave = e - 1 - kMinExp;
  const auto sub = static_cast<int>((2.0 * m - 1.0) * kSubBuckets);
  return static_cast<std::size_t>(1 + octave * kSubBuckets + sub);
}

double LogLinearHistogram::bucket_lo(std::size_t b) {
  if (b == 0) return 0.0;
  const auto i = static_cast<int>(b - 1);
  return std::ldexp(1.0 + static_cast<double>(i % kSubBuckets) / kSubBuckets,
                    i / kSubBuckets + kMinExp);
}

double LogLinearHistogram::bucket_hi(std::size_t b) {
  if (b == 0) return std::ldexp(1.0, kMinExp);
  const auto i = static_cast<int>(b - 1);
  return std::ldexp(
      1.0 + static_cast<double>(i % kSubBuckets + 1) / kSubBuckets,
      i / kSubBuckets + kMinExp);
}

double LogLinearHistogram::value_at_rank(std::uint64_t r) const {
  if (r == 0) return min_;
  if (r + 1 >= count_) return max_;
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = counts_[b];
    if (r < below + c) {
      const double at = (static_cast<double>(r - below) + 0.5) /
                        static_cast<double>(c);
      const double v = bucket_lo(b) + at * (bucket_hi(b) - bucket_lo(b));
      return std::min(std::max(v, min_), max_);
    }
    below += c;
  }
  return max_;
}

double LogLinearHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  LDPC_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1], got " << q);
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double v = value_at_rank(lo);
  if (frac == 0.0 || lo + 1 >= count_) return v;
  return v + frac * (value_at_rank(lo + 1) - v);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  LDPC_CHECK_MSG(hi > lo, "histogram range is empty: [" << lo << ", " << hi << ")");
  LDPC_CHECK(bins > 0);
}

void Histogram::add(double x) {
  const double fraction = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<long>(fraction * static_cast<double>(counts_.size()));
  if (idx < 0) idx = 0;
  if (idx >= static_cast<long>(counts_.size()))
    idx = static_cast<long>(counts_.size()) - 1;
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

}  // namespace ldpc
