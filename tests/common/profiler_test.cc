// The sampling CPU profiler (common/profiler.h): window lifecycle,
// parameter validation, sample capture on a busy thread, phase roots in
// the folded output, and drop accounting.
//
// The whole suite is skipped under ThreadSanitizer: TSan intercepts
// signal delivery and (by design) flags backtrace() from a SIGPROF
// handler, while the server-suite TSan runs cover the lock/metrics
// integration. The real signal path is exercised by the plain and
// ASan/UBSan builds plus the CI server smoke.
#include "common/profiler.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "common/trace.h"
#include "gtest/gtest.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EGP_TSAN 1
#endif
#endif

namespace egp {
namespace {

#ifndef EGP_TSAN

/// Spins a worker that burns CPU inside a TracePhase until told to stop.
class BusyThread {
 public:
  explicit BusyThread(TracePhase phase)
      : thread_([this, phase] {
          Profiler::RegisterCurrentThread();
          registered_.store(true);
          const ScopedTracePhase scoped(phase);
          volatile double sink = 1.0;
          while (!done_.load(std::memory_order_relaxed)) {
            for (int i = 1; i < 2048; ++i) sink = sink * 1.0000001 + i;
          }
        }) {
    while (!registered_.load()) std::this_thread::yield();
  }
  ~BusyThread() {
    done_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::atomic<bool> registered_{false};
  std::thread thread_;
};

TEST(ProfilerTest, StartRejectsBadHz) {
  Profiler::RegisterCurrentThread();
  EXPECT_EQ(Profiler::Global().Start(0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Profiler::Global().Start(Profiler::kMaxHz + 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProfilerTest, StopWithoutStartFails) {
  const auto result = Profiler::Global().Stop();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProfilerTest, CollectRejectsBadWindow) {
  Profiler::RegisterCurrentThread();
  EXPECT_EQ(Profiler::Global().Collect(0.0, 99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Profiler::Global()
                .Collect(Profiler::kMaxWindowSeconds + 1, 99)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ProfilerTest, CollectCapturesBusyThreadWithPhaseRoot) {
  BusyThread busy(TracePhase::kDiscover);
  // 500 Hz over 300 ms of a spinning thread: expect plenty of samples
  // even on a loaded CI machine (the timer counts the thread's own
  // CPU time, so other load does not starve it).
  const auto result = Profiler::Global().Collect(0.3, 500);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->samples, 0u);
  EXPECT_EQ(result->hz, 500);
  EXPECT_GT(result->threads, 0);
  EXPECT_FALSE(result->folded.empty());
  // Folded lines are "phase;frames... count"; the busy thread's samples
  // carry its TracePhase as the synthetic root.
  EXPECT_NE(result->folded.find("discover;"), std::string::npos)
      << result->folded;
  // Every line ends in a positive count.
  size_t start = 0;
  while (start < result->folded.size()) {
    size_t end = result->folded.find('\n', start);
    if (end == std::string::npos) end = result->folded.size();
    const std::string line = result->folded.substr(start, end - start);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    start = end + 1;
  }
}

TEST(ProfilerTest, RenderPhaseIsItsOwnRoot) {
  // JSON rendering runs inside the handler but is billed to "render",
  // not "handler".
  BusyThread busy(TracePhase::kRender);
  const auto result = Profiler::Global().Collect(0.2, 500);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->folded.find("render;"), std::string::npos)
      << result->folded;
  EXPECT_EQ(result->folded.find("handler;"), std::string::npos)
      << result->folded;
}

TEST(ProfilerTest, SecondStartWhileActiveIsUnavailable) {
  BusyThread busy(TracePhase::kHandler);
  ASSERT_TRUE(Profiler::Global().Start(99).ok());
  EXPECT_EQ(Profiler::Global().Start(99).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Profiler::Global().active());
  const auto result = Profiler::Global().Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(Profiler::Global().active());
}

TEST(ProfilerTest, StatsAccumulateAcrossWindows) {
  BusyThread busy(TracePhase::kSample);
  const ProfilerStats before = Profiler::Global().stats();
  const auto result = Profiler::Global().Collect(0.1, 200);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ProfilerStats after = Profiler::Global().stats();
  EXPECT_EQ(after.windows_total, before.windows_total + 1);
  EXPECT_GE(after.samples_total, before.samples_total + result->samples);
  EXPECT_FALSE(after.active);
  EXPECT_GT(after.registered_threads, 0);
}

TEST(ProfilerTest, ThreadExitDuringWindowIsSafe) {
  // A registered thread dying mid-window must not crash the handler or
  // the drain (its ring is torn down by its own TLS destructor).
  ASSERT_TRUE(Profiler::Global().Start(500).ok());
  {
    BusyThread busy(TracePhase::kPrepare);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // joins (and unregisters) while the window is active
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto result = Profiler::Global().Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

#endif  // !EGP_TSAN

TEST(TracePhaseTest, ScopedPhaseNestsAndRestores) {
  EXPECT_EQ(CurrentTracePhase(), TracePhase::kIdle);
  {
    ScopedTracePhase outer(TracePhase::kHandler);
    EXPECT_EQ(CurrentTracePhase(), TracePhase::kHandler);
    {
      ScopedTracePhase inner(TracePhase::kPrepare);
      EXPECT_EQ(CurrentTracePhase(), TracePhase::kPrepare);
    }
    EXPECT_EQ(CurrentTracePhase(), TracePhase::kHandler);
  }
  EXPECT_EQ(CurrentTracePhase(), TracePhase::kIdle);
}

TEST(TracePhaseTest, PhaseNamesAreStable) {
  EXPECT_STREQ(TracePhaseName(TracePhase::kIdle), "idle");
  EXPECT_STREQ(TracePhaseName(TracePhase::kPrepare), "prepare");
  EXPECT_STREQ(TracePhaseName(TracePhase::kDiscover), "discover");
  EXPECT_STREQ(TracePhaseName(TracePhase::kFlush), "flush");
  EXPECT_STREQ(TracePhaseName(TracePhase::kRender), "render");
  EXPECT_STREQ(TracePhaseName(TracePhase::kQueue), "queue");
}

TEST(TracePhaseTest, EveryPhaseHasADistinctName) {
  std::set<std::string> names;
  for (int i = 0; i < kTracePhaseCount; ++i) {
    names.insert(TracePhaseName(static_cast<TracePhase>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kTracePhaseCount));
  EXPECT_EQ(kTracePhaseCount, 11);
  EXPECT_EQ(static_cast<int>(TracePhase::kFlush) + 1, kTracePhaseCount);
  // Out of range maps to idle.
  EXPECT_STREQ(TracePhaseName(static_cast<TracePhase>(kTracePhaseCount)),
               "idle");
}

}  // namespace
}  // namespace egp
