// Small numeric helpers for the benchmark driver: exact quantiles over
// recorded samples, deltas of the library's cumulative histograms, and
// the fixed-capacity per-thread sample buffers the load generators
// write into.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Exact quantile (nearest rank on the sorted copy). 0 when empty.
inline double quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  const std::size_t i = std::min(
      v.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return static_cast<double>(v[i]);
}

/// Samples recorded between two snapshots of a cumulative histogram.
/// min/max of the window are unknown, so quantiles are clamped only to
/// the bucket bounds.
inline bdhtm::obs::HistogramSnapshot hist_delta(
    const bdhtm::obs::HistogramSnapshot& before,
    const bdhtm::obs::HistogramSnapshot& after) {
  bdhtm::obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.min = 0;
  d.max = ~std::uint64_t{0};
  for (int i = 0; i < bdhtm::obs::HistogramSnapshot::kBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

/// Append-only buffer written by one generator thread and read by the
/// main thread. The storage never moves, and `size` is published with
/// release order, so a reader sees a consistent prefix even while the
/// writer is stuck, or frozen, inside a call (the abort path).
template <typename T>
class AppendBuf {
 public:
  explicit AppendBuf(std::size_t cap) : cap_(cap), data_(new T[cap]) {}

  void push(const T& v) {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    if (n == cap_) return;  // full: later entries are dropped, not wrapped
    data_[n] = v;
    size_.store(n + 1, std::memory_order_release);
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Append entries [from, min(to, size())) to `out`.
  template <typename Out>
  void append_to(std::vector<Out>& out, std::size_t from = 0,
                 std::size_t to = SIZE_MAX) const {
    const std::size_t n = std::min(size(), to);
    if (from < n) out.insert(out.end(), data_.get() + from, data_.get() + n);
  }

 private:
  std::size_t cap_;
  std::unique_ptr<T[]> data_;
  std::atomic<std::size_t> size_{0};
};

/// Latency samples in ns, saturating at 2^32 - 1.
class SampleBuf : public AppendBuf<std::uint32_t> {
 public:
  using AppendBuf::AppendBuf;
  void push(std::uint64_t ns) {
    AppendBuf::push(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, 0xffffffffu)));
  }
};

}  // namespace perfbench
