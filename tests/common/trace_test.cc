// ScopedTracePhase as the one phase timer: with a current trace it adds
// each scope's self time to RequestTrace::phase_ns, so nested phases
// partition the outer scope's elapsed time; without one it writes
// nothing and reads no clock.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace egp {
namespace {

using namespace std::chrono_literals;

constexpr int64_t kChildSleepNs = 20'000'000;

int64_t PhaseSum(const RequestTrace& trace) {
  int64_t sum = 0;
  for (const int64_t ns : trace.phase_ns) sum += ns;
  return sum;
}

TEST(ScopedTracePhaseTest, NestedScopesRecordSelfTime) {
  RequestTrace trace;
  double outer_seconds = 0;
  double child_seconds = 0;
  {
    const ScopedRequestTrace current(&trace);
    const ScopedTracePhase outer(TracePhase::kHandler, &outer_seconds);
    {
      const ScopedTracePhase child(TracePhase::kDiscover, &child_seconds);
      std::this_thread::sleep_for(std::chrono::nanoseconds(kChildSleepNs));
    }
  }
  const int64_t parent = trace.PhaseNs(TracePhase::kHandler);
  const int64_t child = trace.PhaseNs(TracePhase::kDiscover);
  // The child gets at least its sleep; the parent's self time excludes it.
  EXPECT_GE(child, kChildSleepNs);
  EXPECT_GE(parent, 0);
  EXPECT_LT(parent, child);
  EXPECT_GE(child_seconds * 1e9, static_cast<double>(kChildSleepNs));
  // Parent plus child is the outer scope's elapsed time, to within the
  // double rounding of the elapsed seconds.
  EXPECT_NEAR(static_cast<double>(parent + child) * 1e-9, outer_seconds,
              1e-9);
  EXPECT_NEAR(static_cast<double>(child) * 1e-9, child_seconds, 1e-9);
  EXPECT_EQ(PhaseSum(trace), parent + child);
  EXPECT_EQ(CurrentTracePhase(), TracePhase::kIdle);
}

TEST(ScopedTracePhaseTest, SiblingsAndRepeatsAccumulate) {
  RequestTrace trace;
  double outer_seconds = 0;
  {
    const ScopedRequestTrace current(&trace);
    const ScopedTracePhase outer(TracePhase::kHandler, &outer_seconds);
    for (int i = 0; i < 3; ++i) {
      const ScopedTracePhase child(TracePhase::kRender);
      std::this_thread::sleep_for(1ms);
    }
    {
      const ScopedTracePhase prepare(TracePhase::kPrepare);
      // The same phase nested in itself bills its interval once.
      const ScopedTracePhase nested(TracePhase::kPrepare);
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_GE(trace.PhaseNs(TracePhase::kRender), 3'000'000);
  EXPECT_GE(trace.PhaseNs(TracePhase::kPrepare), 1'000'000);
  EXPECT_LT(trace.PhaseNs(TracePhase::kPrepare), 1'000'000'000);
  EXPECT_GE(trace.PhaseNs(TracePhase::kHandler), 0);
  EXPECT_NEAR(static_cast<double>(PhaseSum(trace)) * 1e-9, outer_seconds,
              1e-9);
}

TEST(ScopedTracePhaseTest, WithoutATraceNothingIsWritten) {
  RequestTrace trace;
  {
    const ScopedRequestTrace current(&trace);
    const ScopedRequestTrace none(nullptr);
    const ScopedTracePhase untimed(TracePhase::kDiscover);
    EXPECT_EQ(untimed.start_ns(), 0);  // no trace, no elapsed: no clock
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(PhaseSum(trace), 0);

  // A trace installed inside an untimed scope: only the scopes that
  // begin under it time into it, and the untimed parent is left alone.
  {
    const ScopedTracePhase outer(TracePhase::kHandler);
    const ScopedRequestTrace current(&trace);
    const ScopedTracePhase inner(TracePhase::kSample);
    EXPECT_GT(inner.start_ns(), 0);
  }
  EXPECT_GE(trace.PhaseNs(TracePhase::kSample), 0);
  EXPECT_EQ(trace.PhaseNs(TracePhase::kHandler), 0);

  // Asking for the elapsed time reads the clock without a trace.
  double elapsed = -1;
  {
    const ScopedTracePhase scope(TracePhase::kDiscover, &elapsed);
    EXPECT_GT(scope.start_ns(), 0);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(elapsed, 1e-3);
  EXPECT_EQ(CurrentRequestTrace(), nullptr);
}

TEST(ScopedTracePhaseTest, TagsTheProfilerPhaseAndRestoresIt) {
  RequestTrace trace;
  const ScopedRequestTrace current(&trace);
  {
    const ScopedTracePhase outer(TracePhase::kHandler);
    EXPECT_EQ(CurrentTracePhase(), TracePhase::kHandler);
    {
      const ScopedTracePhase inner(TracePhase::kRender);
      EXPECT_EQ(CurrentTracePhase(), TracePhase::kRender);
    }
    EXPECT_EQ(CurrentTracePhase(), TracePhase::kHandler);
  }
  EXPECT_EQ(CurrentTracePhase(), TracePhase::kIdle);
}

}  // namespace
}  // namespace egp
