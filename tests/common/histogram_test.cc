// Histogram: the shared log-spaced bucket ladder, bucket placement,
// snapshot consistency and concurrent observation.
#include "common/histogram.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace egp {
namespace {

// The lock-site table embeds a Histogram in a static array, so it must
// stay constant-initializable.
constinit Histogram g_constant_initialized;

size_t BucketOf(int64_t nanos) {
  Histogram histogram;
  histogram.Observe(nanos);
  const Histogram::Snapshot snap = histogram.snapshot();
  size_t bucket = 0;
  while (snap.cumulative[bucket] == 0) ++bucket;
  return bucket;
}

TEST(HistogramTest, LadderIsLogSpacedFromMicrosToMinute) {
  EXPECT_EQ(kHistogramBoundsNanos.front(), 1'000);  // 1 µs
  EXPECT_GE(kHistogramBoundsNanos.back(), 30'000'000'000);
  EXPECT_LE(kHistogramBoundsNanos.back(), 100'000'000'000);
  for (size_t i = 1; i < kHistogramBoundsNanos.size(); ++i) {
    EXPECT_LT(kHistogramBoundsNanos[i - 1], kHistogramBoundsNanos[i]);
  }
  // At most three bounds per decade.
  for (size_t i = 3; i < kHistogramBoundsNanos.size(); ++i) {
    EXPECT_GE(kHistogramBoundsNanos[i], 10 * kHistogramBoundsNanos[i - 3]);
  }
}

TEST(HistogramTest, BucketEdges) {
  EXPECT_EQ(BucketOf(0), 0u);
  EXPECT_EQ(BucketOf(-5), 0u);  // clamped to 0
  // A value exactly on a bound belongs to that bound's bucket (`le`).
  for (size_t i = 0; i < kHistogramBoundsNanos.size(); ++i) {
    EXPECT_EQ(BucketOf(kHistogramBoundsNanos[i]), i);
    EXPECT_EQ(BucketOf(kHistogramBoundsNanos[i] + 1), i + 1);
  }
  // Past the last bound: +Inf only.
  EXPECT_EQ(BucketOf(kHistogramBoundsNanos.back() + 1),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, WarmPathLatenciesResolveBelowHalfMillisecond) {
  const size_t fifty_us = BucketOf(50'000);
  const size_t two_hundred_us = BucketOf(200'000);
  EXPECT_NE(fifty_us, two_hundred_us);
  ASSERT_LT(two_hundred_us, kHistogramBoundsNanos.size());  // finite
  EXPECT_LT(kHistogramBoundsNanos[two_hundred_us], 500'000);
}

TEST(HistogramTest, SnapshotIsCumulativeWithCountAtInf) {
  Histogram histogram;
  histogram.Observe(1'000);           // 1 µs
  histogram.Observe(3'000'000);       // 3 ms
  histogram.Observe(3'000'000);
  histogram.Observe(99'000'000'000);  // 99 s: +Inf
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count(), 4u);
  EXPECT_EQ(snap.count(), snap.cumulative.back());
  EXPECT_EQ(snap.cumulative[0], 1u);
  EXPECT_EQ(snap.cumulative[kHistogramBoundsNanos.size() - 1], 3u);
  for (size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_LE(snap.cumulative[i - 1], snap.cumulative[i]);
  }
  EXPECT_NEAR(snap.sum_seconds, 99.006001, 1e-9);
  EXPECT_EQ(Histogram::Snapshot{}.count(), 0u);
}

TEST(HistogramTest, ConcurrentObserversLoseNothing) {
  Histogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < 1000; ++i) histogram.Observe(t * 1'000'000 + i);
    });
  }
  // Scrape while observers run: every snapshot is a monotone ladder
  // whose +Inf value is its count.
  for (int i = 0; i < 100; ++i) {
    const Histogram::Snapshot snap = histogram.snapshot();
    for (size_t b = 1; b < Histogram::kBuckets; ++b) {
      ASSERT_LE(snap.cumulative[b - 1], snap.cumulative[b]);
    }
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.snapshot().count(), 4000u);
}

TEST(HistogramTest, ConstantInitializedGlobalObserves) {
  g_constant_initialized.Observe(42);
  EXPECT_EQ(g_constant_initialized.snapshot().count(), 1u);
}

}  // namespace
}  // namespace egp
