// Streaming statistics accumulators for benchmark harnesses.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ldpc {

/// Welford single-pass mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile of an ascending-sorted sample set with linear interpolation
/// between order statistics (the "R-7" / NumPy default definition):
/// q in [0, 1] maps onto rank q * (n - 1), fractional ranks interpolate
/// between the two neighbours. Distinct from the previous ceil-rank rule,
/// which returned the max for p50 of two samples. Empty input returns 0.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Fixed-memory log-linear histogram of nonnegative samples (latencies in
/// microseconds): kSubBuckets equal-width buckets per power of two from
/// 2^kMinExp up, so a bucket spans at most 1/kSubBuckets of its lower edge
/// (6.25%), plus one underflow bucket [0, 2^kMinExp); samples past the top
/// octave land in the last bucket. One fixed array: adding is O(1) and the
/// memory (and the cost of a copy) does not grow with the sample count.
/// Count, sum, min and max are kept exactly alongside.
class LogLinearHistogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExp = -2;    ///< 0.25 us lower edge
  static constexpr int kOctaves = 32;   ///< up to 2^30 us, about 18 minutes
  static constexpr std::size_t kBuckets = 1 + kOctaves * kSubBuckets;

  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Estimate of percentile_sorted(all samples, q): the R-7 interpolation
  /// between the two order statistics around rank q * (count - 1), each
  /// placed inside its bucket as if the bucket's samples were evenly
  /// spread, so the estimate lies within one bucket of the exact value.
  /// Rank 0 and the top rank return the exact min and max. Empty -> 0.
  double quantile(double q) const;

  static std::size_t bucket_of(double x);
  static double bucket_lo(std::size_t b);
  static double bucket_hi(std::size_t b);

 private:
  /// The sample of rank r (0-based), placed inside its bucket.
  double value_at_rank(std::uint64_t r) const;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples land in the edge
/// bins so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const { return bin_lo(i + 1); }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace ldpc
