#ifndef TPART_COMMON_STATS_H_
#define TPART_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tpart {

/// Streaming summary of a sequence of samples: count / mean / min / max /
/// variance (Welford). Cheap enough to keep one per metric per machine.
class RunningStat {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Population variance.
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

  /// Merges another summary into this one.
  void Merge(const RunningStat& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bucket log-linear (HDR-style) histogram for latency
/// distributions spanning several orders of magnitude: values below 16
/// are counted exactly, and every octave [2^k, 2^(k+1)) above that is
/// split into 16 equal sub-buckets, so a bucket's width is at most 1/16
/// of any value in it. Covers the full uint64 range in the caller's unit
/// (typically microseconds).
class Histogram {
 public:
  Histogram();

  void Add(std::uint64_t value);
  std::size_t count() const { return count_; }
  double mean() const;
  double sum() const { return sum_; }
  std::uint64_t max_value() const { return max_; }

  /// Value at quantile q in [0,1]: the sample of rank floor(q*(n-1)),
  /// approximated by min(its bucket's upper bound, max_value()) — never
  /// below the exact value and within 1/16 above it.
  std::uint64_t Quantile(double q) const;

  /// Bucket introspection, for exporters (Prometheus cumulative buckets).
  /// Buckets ascend: i < 16 holds exactly {i}; above that, each octave
  /// contributes 16 consecutive buckets.
  static constexpr int num_buckets() { return kNumBuckets; }
  std::uint64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Largest value counted in bucket i.
  static std::uint64_t BucketUpperBound(int i);

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

 private:
  /// Exact buckets [0, 16), then 16 per octave for k = 4..63.
  static constexpr int kNumBuckets = 16 + 60 * 16;
  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t max_ = 0;
};

}  // namespace tpart

#endif  // TPART_COMMON_STATS_H_
