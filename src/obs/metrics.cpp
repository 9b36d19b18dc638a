#include "obs/metrics.hpp"

#include <bit>

namespace sb::obs {

void Histogram::merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

size_t Histogram::bucket_of(uint64_t value) {
  if (value == 0) return 0;
  return static_cast<size_t>(std::bit_width(value));
}

const Histogram* Registry::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

void Registry::clear() { histograms_.clear(); }

}  // namespace sb::obs
