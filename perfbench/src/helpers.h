// Pure helpers of the preview-server benchmark: the tail-percentile
// picker, failure accounting, open-loop due-time timing and the response
// body comparator. They hold no I/O, so perfbench_selftest checks them
// directly.
#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (any order); 0 when empty.
double Percentile(std::vector<double> samples, double pct);

/// A tail percentile together with the percentile actually used and the
/// number of samples it was taken from.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  size_t count = 0;
};

/// The highest percentile, at most `want`, that has at least ten samples
/// beyond it (nearest rank). Below twenty samples no percentile from the
/// median up qualifies; the median is returned and `pct` says 50.
Tail TailPercentile(std::vector<double> samples, double want = 99.0);

/// Failed operations against attempted ones. A failure is a transport
/// error, a non-2xx status (a 503 shed included) or a body that fails
/// the correctness check.
struct FailureTally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t transport_errors = 0;
  uint64_t bad_status = 0;
  uint64_t bad_body = 0;

  enum class Outcome { kOk, kTransport, kStatus, kBody };
  void Record(Outcome outcome);
  void Merge(const FailureTally& other);
  uint64_t failed() const { return transport_errors + bad_status + bad_body; }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_share() const;
};

/// Open-loop timing of one request: latency counts from when the request
/// was due, so a stall also charges the requests queued behind it;
/// lateness is how far behind its schedule the generator sent it.
struct DueTiming {
  double latency = 0.0;
  double late = 0.0;
};
DueTiming TimeFromDue(double due, double sent, double done);

/// Removes the top-level members "timings" and "cacheHit" of a JSON
/// object document, the only parts of a preview response that may differ
/// between two servings of one request. Everything else is kept byte for
/// byte. Returns nullopt when `body` is not a well-formed top-level
/// object as far as this scan can tell.
std::optional<std::string> StripVolatileMembers(std::string_view body);

/// True when `body` equals `reference_stripped` once its volatile
/// members are removed.
bool BodyMatchesReference(std::string_view body,
                          std::string_view reference_stripped);

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
