#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace tpart {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  const double new_mean =
      mean_ + delta * static_cast<double>(other.count_) / total;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ = new_mean;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {
// Values below 16 index themselves. A value v in octave k >= 4 (2^k <= v
// < 2^(k+1)) lands in sub-bucket (v >> (k-4)) & 15 of that octave.
int BucketIndex(std::uint64_t value) {
  if (value < 16) return static_cast<int>(value);
  const int k = 63 - std::countl_zero(value);
  const int sub = static_cast<int>((value >> (k - 4)) & 15);
  return 16 + (k - 4) * 16 + sub;
}
}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

std::uint64_t Histogram::BucketUpperBound(int i) {
  if (i < 16) return static_cast<std::uint64_t>(i);
  const int shift = (i - 16) / 16;  // octave k = shift + 4
  const auto sub = static_cast<std::uint64_t>((i - 16) % 16);
  const std::uint64_t lower = (16 + sub) << shift;
  // lower + width - 1, written so the top bucket ends at 2^64 - 1
  // without overflowing.
  return lower + ((std::uint64_t{1} << shift) - 1);
}

void Histogram::Add(std::uint64_t value) {
  buckets_[static_cast<std::size_t>(BucketIndex(value))]++;
  ++count_;
  sum_ += static_cast<double>(value);
  max_ = std::max(max_, value);
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen > target) return std::min(BucketUpperBound(i), max_);
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

}  // namespace tpart
