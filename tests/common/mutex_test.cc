// Runtime semantics of the annotated locking wrappers (common/mutex.h).
// The *annotations* are proven by the Clang build and tests/analysis/;
// this suite pins down the behavior the wrappers must preserve over the
// standard primitives they wrap: mutual exclusion, TryLock semantics,
// condition-variable wakeups, and deadline-based timed waits.
#include "common/mutex.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "common/lock_stats.h"
#include "gtest/gtest.h"

namespace egp {
namespace {

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, TryLockFailsWhenHeld) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> acquired{true};
  // try_lock on an already-held std::mutex from the SAME thread is UB;
  // probe from another thread.
  std::thread prober([&] { acquired.store(mu.TryLock()); });
  prober.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();
  std::thread prober2([&] {
    const bool ok = mu.TryLock();
    acquired.store(ok);
    if (ok) mu.Unlock();
  });
  prober2.join();
  EXPECT_TRUE(acquired.load());
}

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;  // deliberately non-atomic: the lock is the proof
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 2'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIncrementsPerThread);
}

TEST(CondVarTest, WaitReleasesAndReacquires) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    {
      MutexLock lock(&mu);
      ready = true;
    }
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    // If Wait failed to release the mutex, the producer could never set
    // ready and this would deadlock (caught by the suite timeout).
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool released = false;
  int woke = 0;
  constexpr int kWaiters = 3;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!released) cv.Wait(mu);
      ++woke;
    });
  }
  {
    MutexLock lock(&mu);
    released = true;
  }
  cv.NotifyAll();
  for (std::thread& waiter : waiters) waiter.join();
  MutexLock lock(&mu);
  EXPECT_EQ(woke, kWaiters);
}

TEST(CondVarTest, WaitUntilTimesOut) {
  Mutex mu;
  CondVar cv;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  MutexLock lock(&mu);
  // Nobody ever notifies: the wait must report timeout, not hang.
  bool timed_out = false;
  while (!timed_out) timed_out = !cv.WaitUntil(mu, deadline);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(CondVarTest, WaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_FALSE(cv.WaitFor(mu, std::chrono::milliseconds(10)));
}

TEST(LockStatsTest, RegisterDedupsByName) {
  LockSite* a = RegisterLockSite("mutex_test.dedup");
  LockSite* b = RegisterLockSite("mutex_test.dedup");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
}

// Racers registering one fresh name must all land in one slot;
// otherwise /metrics emits duplicate site series.
TEST(LockStatsTest, RacingRegistrationsOfOneNameShareASlot) {
  static constexpr const char* kNames[] = {
      "mutex_test.race0", "mutex_test.race1", "mutex_test.race2",
      "mutex_test.race3", "mutex_test.race4", "mutex_test.race5",
      "mutex_test.race6", "mutex_test.race7"};
  constexpr int kThreads = 4;
  for (const char* name : kNames) {
    std::vector<LockSite*> slots(kThreads, nullptr);
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        slots[t] = RegisterLockSite(name);
      });
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_NE(slots[0], nullptr);
    for (LockSite* slot : slots) EXPECT_EQ(slot, slots[0]) << name;
  }
  std::set<std::string_view> seen;
  for (const LockSiteSnapshot& snap : SnapshotLockSites()) {
    EXPECT_TRUE(seen.insert(snap.name).second)
        << "duplicate site " << snap.name;
  }
}

TEST(LockStatsTest, LabeledMutexCountsAcquisitions) {
  LockSite* site = RegisterLockSite("mutex_test.acquisitions");
  ASSERT_NE(site, nullptr);
  const uint64_t before = site->acquisitions.load();
  Mutex mu{"mutex_test.acquisitions"};
  for (int i = 0; i < 10; ++i) {
    MutexLock lock(&mu);
  }
  EXPECT_EQ(site->acquisitions.load(), before + 10);
}

TEST(LockStatsTest, ContentionRecordsWaitHistogram) {
  LockSite* site = RegisterLockSite("mutex_test.contention");
  ASSERT_NE(site, nullptr);
  const uint64_t contentions_before = site->wait.snapshot().count();
  Mutex mu{"mutex_test.contention"};
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(&mu);
    held.store(true);
    // Hold long enough that the main thread's Lock() reliably takes the
    // contended (timed) path.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!held.load()) std::this_thread::yield();
  {
    MutexLock lock(&mu);
  }
  holder.join();
  // Each contention is one observation of the wait histogram, and a
  // ~20 ms wait lands above the 1 ms bound.
  const Histogram::Snapshot wait = site->wait.snapshot();
  EXPECT_GE(wait.count(), contentions_before + 1);
  EXPECT_GT(wait.sum_seconds, 0.0);
  const size_t one_ms = static_cast<size_t>(
      std::find(kHistogramBoundsNanos.begin(), kHistogramBoundsNanos.end(),
                1'000'000) -
      kHistogramBoundsNanos.begin());
  EXPECT_LT(wait.cumulative[one_ms], wait.count());
}

TEST(LockStatsTest, SnapshotCarriesSiteNames) {
  RegisterLockSite("mutex_test.snapshot");
  bool found = false;
  for (const LockSiteSnapshot& snap : SnapshotLockSites()) {
    ASSERT_NE(snap.name, nullptr);
    if (std::string_view(snap.name) == "mutex_test.snapshot") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(LockStatsTest, RuntimeGateStopsWaitRecording) {
  LockSite* site = RegisterLockSite("mutex_test.gate");
  ASSERT_NE(site, nullptr);
  SetLockTelemetryEnabled(false);
  const uint64_t contentions_before = site->wait.snapshot().count();
  Mutex mu{"mutex_test.gate"};
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(&mu);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  while (!held.load()) std::this_thread::yield();
  {
    MutexLock lock(&mu);
  }
  holder.join();
  SetLockTelemetryEnabled(true);
  EXPECT_EQ(site->wait.snapshot().count(), contentions_before);
}

TEST(CondVarTest, WaitUntilReturnsTrueWhenNotified) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    {
      MutexLock lock(&mu);
      ready = true;
    }
    cv.NotifyOne();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool observed = false;
  {
    MutexLock lock(&mu);
    while (!ready) {
      if (!cv.WaitUntil(mu, deadline)) break;  // timeout: fail below
    }
    observed = ready;
  }
  producer.join();
  EXPECT_TRUE(observed);
}

}  // namespace
}  // namespace egp
