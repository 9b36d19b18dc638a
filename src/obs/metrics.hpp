#pragma once
// Metrics registry: named log2-bucketed histograms.
//
// The concurrency model is ownership, not locking: each shard worker
// records into a private Registry with zero synchronization, and the shard
// engine merges the workers' registries at its rendezvous. std::map keys
// give a stable iteration order and merge is commutative, so a merged
// registry is identical regardless of worker count or merge order
// (tests/obs_test.cpp pins this).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace sb::obs {

/// Log2-bucketed histogram over uint64_t samples. Bucket 0 counts exact
/// zeros; bucket k (1..64) counts values in [2^(k-1), 2^k), so the whole
/// uint64_t range is covered and u64-max lands in bucket 64. Recording is a
/// bit_width plus two adds — cheap enough for per-window phase timings.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void record(uint64_t value) {
    buckets_[bucket_of(value)] += 1;
    count_ += 1;
    sum_ += value;  // wraps on overflow; bucket counts stay exact
  }

  void merge(const Histogram& other);

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t sum() const { return sum_; }
  [[nodiscard]] uint64_t bucket(size_t index) const { return buckets_[index]; }

  /// Bucket index for a sample: 0 for 0, otherwise bit_width(value).
  [[nodiscard]] static size_t bucket_of(uint64_t value);

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Named histograms. A plain single-writer object: no internal locking.
/// Merge adds histograms bucket-wise.
class Registry {
 public:
  /// Mutable histogram handle for hot loops: the reference stays valid
  /// until clear() (std::map nodes are address-stable), so callers can
  /// look the name up once and record without per-sample lookups.
  [[nodiscard]] Histogram& hist(const std::string& name) {
    return histograms_[name];
  }

  /// nullptr when the name was never recorded.
  [[nodiscard]] const Histogram* histogram(const std::string& name) const;

  void merge(const Registry& other);
  void clear();

 private:
  std::map<std::string, Histogram> histograms_;
};

}  // namespace sb::obs
