// The one bucketed histogram in the tree. Every latency family on
// /metrics (request, per-dataset, event-loop lag, lock wait) shares the
// same log-spaced bucket ladder, so any two of them compare bucket by
// bucket.
//
// Observe() is a binary search plus two relaxed atomic adds. Buckets are
// independent counters; snapshot() derives the total count from the
// buckets themselves, so a scrape racing Observe() still sees a monotone
// ladder whose +Inf value is the count.
//
// std-only and constant-initializable: common/lock_stats.h (included by
// common/mutex.h) embeds one in every slot of its static site table,
// which global Mutexes register into during static initialization.
#ifndef EGP_COMMON_HISTOGRAM_H_
#define EGP_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace egp {

/// Upper bucket bounds in nanoseconds: 1, 2.5 and 5 times each power of
/// ten from 1 µs to 50 s. Fine enough to split a 50 µs warm preview from
/// a 200 µs one, wide enough for a multi-second cold prepare. +Inf is
/// implicit.
inline constexpr std::array<int64_t, 24> kHistogramBoundsNanos = [] {
  std::array<int64_t, 24> bounds{};
  int64_t decade = 1000;
  for (size_t i = 0; i < bounds.size(); i += 3, decade *= 10) {
    bounds[i] = decade;
    bounds[i + 1] = decade * 5 / 2;
    bounds[i + 2] = decade * 5;
  }
  return bounds;
}();

class Histogram {
 public:
  /// One bucket per bound, plus +Inf.
  static constexpr size_t kBuckets = kHistogramBoundsNanos.size() + 1;

  constexpr Histogram() = default;

  /// Records one duration; a negative one counts as 0. Bucket i takes
  /// values <= kHistogramBoundsNanos[i], Prometheus `le` semantics.
  void Observe(int64_t nanos) {
    if (nanos < 0) nanos = 0;
    const auto bucket = std::lower_bound(kHistogramBoundsNanos.begin(),
                                         kHistogramBoundsNanos.end(), nanos) -
                        kHistogramBoundsNanos.begin();
    buckets_[static_cast<size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
    sum_nanos_.fetch_add(static_cast<uint64_t>(nanos),
                         std::memory_order_relaxed);
  }

  struct Snapshot {
    /// cumulative[i] counts observations <= kHistogramBoundsNanos[i];
    /// the last entry is +Inf.
    std::array<uint64_t, kBuckets> cumulative{};
    double sum_seconds = 0.0;

    uint64_t count() const { return cumulative.back(); }
  };

  Snapshot snapshot() const {
    Snapshot snap;
    uint64_t running = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      running += buckets_[i].load(std::memory_order_relaxed);
      snap.cumulative[i] = running;
    }
    snap.sum_seconds =
        static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
        1e-9;
    return snap;
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_nanos_{0};
};

}  // namespace egp

#endif  // EGP_COMMON_HISTOGRAM_H_
