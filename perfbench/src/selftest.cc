// Self-test of the benchmark's own helpers: the tail-percentile picker,
// failure accounting, open-loop due-time timing and the body comparator.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "helpers.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // deliberately unsorted
  return v;
}

void TestPercentiles() {
  using perfbench::Percentile;
  using perfbench::TailPercentile;
  Expect(Near(Percentile(Range(100), 50), 50), "p50 of 1..100 is 50");
  Expect(Near(Percentile(Range(100), 99), 99), "p99 of 1..100 is 99");
  Expect(Near(Percentile({}, 50), 0), "percentile of nothing is 0");

  // 2000 samples: p99 (rank 1980) leaves 20 beyond it, so p99 is kept.
  perfbench::Tail tail = TailPercentile(Range(2000), 99);
  Expect(Near(tail.pct, 99) && Near(tail.value, 1980) && tail.count == 2000,
         "p99 kept with 20 samples beyond");
  // 1000 samples: p99 (rank 990) leaves exactly 10 beyond: still p99.
  tail = TailPercentile(Range(1000), 99);
  Expect(Near(tail.pct, 99) && Near(tail.value, 990),
         "p99 kept with exactly 10 samples beyond");
  // 500 samples: p99 would leave 5; the picker drops to rank 490 = p98.
  tail = TailPercentile(Range(500), 99);
  Expect(Near(tail.pct, 98) && Near(tail.value, 490),
         "p99 of 500 falls back to p98");
  // 40 samples: rank 30 = p75, ten beyond.
  tail = TailPercentile(Range(40), 99);
  Expect(Near(tail.pct, 75) && Near(tail.value, 30), "p99 of 40 is p75");
  // 20 samples: rank 10 = p50, ten beyond.
  tail = TailPercentile(Range(20), 99);
  Expect(Near(tail.pct, 50) && Near(tail.value, 10), "p99 of 20 is p50");
  // Fewer: nothing from the median up qualifies; the median is reported.
  tail = TailPercentile(Range(15), 99);
  Expect(Near(tail.pct, 50) && Near(tail.value, 8), "15 samples give p50");
}

void TestFailureTally() {
  using Outcome = perfbench::FailureTally::Outcome;
  perfbench::FailureTally tally;
  Expect(Near(tally.failed_share(), 0), "empty tally has share 0");
  for (int i = 0; i < 96; ++i) tally.Record(Outcome::kOk);
  tally.Record(Outcome::kTransport);
  tally.Record(Outcome::kStatus);  // e.g. a 503 shed by admission
  tally.Record(Outcome::kBody);
  tally.Record(Outcome::kBody);
  Expect(tally.attempted == 100 && tally.ok == 96, "attempted and ok counted");
  Expect(tally.failed() == 4, "every failure kind counts");
  Expect(Near(tally.failed_share(), 0.04), "failed_share = 4/100");
  perfbench::FailureTally other;
  other.Record(Outcome::kStatus);
  tally.Merge(other);
  Expect(tally.attempted == 101 && tally.bad_status == 2 &&
             Near(tally.failed_share(), 5.0 / 101),
         "merge adds both sides");
}

void TestDueTiming() {
  // Sent on time: latency is the service time, no lateness.
  perfbench::DueTiming t = perfbench::TimeFromDue(10.0, 10.0, 10.25);
  Expect(Near(t.latency, 0.25) && Near(t.late, 0), "on-time request");
  // Sent 2 s late behind a stall: latency counts the wait from due.
  t = perfbench::TimeFromDue(10.0, 12.0, 12.25);
  Expect(Near(t.latency, 2.25) && Near(t.late, 2.0), "late request");
  // Woken a hair early: lateness never goes negative.
  t = perfbench::TimeFromDue(10.0, 9.999, 10.1);
  Expect(Near(t.late, 0) && Near(t.latency, 0.1), "early send is not late");
}

void TestComparator() {
  const std::string served =
      "{\"dataset\":\"film\",\"cacheHit\":true,\"score\":1.5,"
      "\"preview\":{\"timings\":[1],\"tables\":[{\"key\":\"a\\\"}\"}]},"
      "\"stats\":{\"subsetsEnumerated\":3},"
      "\"timings\":{\"prepareSeconds\":0.001,\"preparePhases\":{\"keySeconds\":"
      "2e-06}}}";
  const std::string reference =
      "{\"dataset\":\"film\",\"cacheHit\":false,\"score\":1.5,"
      "\"preview\":{\"timings\":[1],\"tables\":[{\"key\":\"a\\\"}\"}]},"
      "\"stats\":{\"subsetsEnumerated\":3},"
      "\"timings\":{\"prepareSeconds\":0.5,\"preparePhases\":{\"keySeconds\":"
      "0.25}}}";
  const auto stripped = perfbench::StripVolatileMembers(reference);
  Expect(stripped.has_value(), "reference strips");
  Expect(*stripped ==
             "{\"dataset\":\"film\",\"score\":1.5,"
             "\"preview\":{\"timings\":[1],\"tables\":[{\"key\":\"a\\\"}\"}]},"
             "\"stats\":{\"subsetsEnumerated\":3}}",
         "exactly top-level timings and cacheHit are removed");
  Expect(perfbench::BodyMatchesReference(served, *stripped),
         "differing timings and cacheHit still match");

  std::string changed_score = served;
  changed_score.replace(changed_score.find("1.5"), 3, "1.6");
  Expect(!perfbench::BodyMatchesReference(changed_score, *stripped),
         "a changed score is flagged");
  std::string changed_nested = served;
  changed_nested.replace(changed_nested.find("[1]"), 3, "[2]");
  Expect(!perfbench::BodyMatchesReference(changed_nested, *stripped),
         "a nested member named timings is compared, not stripped");
  Expect(!perfbench::BodyMatchesReference(served.substr(0, served.size() - 1),
                                          *stripped),
         "a truncated body is flagged");
  Expect(!perfbench::StripVolatileMembers("[1,2]").has_value(),
         "a non-object is rejected");
  Expect(perfbench::StripVolatileMembers("{}").value_or("x") == "{}",
         "an empty object strips to itself");
}

}  // namespace

int main() {
  TestPercentiles();
  TestFailureTally();
  TestDueTiming();
  TestComparator();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
