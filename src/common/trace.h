// Request-scoped trace context and the one request phase model.
//
// A RequestTrace rides along with one HTTP exchange from accept to the
// final flushed byte. Its phase times are one array, phase_ns, indexed
// by TracePhase. ScopedTracePhase writes the phases code runs in (self
// times, so nested phases partition their parent); the transport writes
// the wall intervals no scope spans (read, queue, serialize, flush).
// The access log, the flight recorder and the profiler all read that
// one model. Layers below the transport reach the in-flight trace
// through a thread-local pointer (CurrentRequestTrace), so annotating a
// request needs no API change.
//
// This lives in common/ (not server/) on purpose: the layering DAG lets
// service/ and store/ include common/ but not server/, and both need to
// write into the active trace.
#ifndef EGP_COMMON_TRACE_H_
#define EGP_COMMON_TRACE_H_

#include <cstdint>
#include <string>

#include "common/mutex.h"
#include "common/rng.h"

namespace egp {

/// CLOCK_MONOTONIC now, in nanoseconds — the fine-grained sibling of the
/// millisecond deadline clock; sub-millisecond phases (serialize, flush
/// on loopback) need the resolution.
int64_t MonotonicNanos();

/// A request phase. The sampling profiler (common/profiler.h) tags each
/// CPU sample with its thread's current phase; RequestTrace::phase_ns
/// holds time per phase. kIdle is the resting state (any thread outside
/// a phase scope) and is never timed. kQueue is the pool wait between
/// dispatch and handler start: the transport stamps it, and it is never
/// a thread's current phase.
enum class TracePhase : uint8_t {
  kIdle = 0,
  kRead,
  kQueue,
  kAdmission,
  kHandler,
  kPrepare,
  kDiscover,
  kSample,
  kRender,
  kSerialize,
  kFlush,
};
inline constexpr int kTracePhaseCount = 11;

/// Stable lowercase name ("idle", "read", ...): the one phase name list,
/// used for folded-stack roots, access-log keys and tests. Out-of-range
/// values map to "idle".
const char* TracePhaseName(TracePhase phase);

/// Wall-clock breakdown of one PreparedSchema build, by phase. The paper
/// computes all scoring measures before discovery (§5), so on large
/// graphs these phases — not the discovery algorithms — dominate
/// end-to-end latency; the perf benches, the CLI's --verbose mode and
/// the request trace of the build's request report it.
struct PrepareTimings {
  double key_seconds = 0.0;            // key-measure scoring
  double nonkey_seconds = 0.0;         // non-key-measure scoring
  double distance_seconds = 0.0;       // all-pairs distances + pair rows
  double candidate_sort_seconds = 0.0; // Γτ sort + prefix sums
  double total_seconds = 0.0;          // whole Create call
};

/// One request's trace: identity, phase times, sizes, and outcome. All
/// fields are plain values; the object is only ever touched by one
/// thread at a time (loop thread -> pool thread -> loop thread, each
/// handoff through a synchronizing queue).
struct RequestTrace {
  /// 16 lowercase hex chars when generated; verbatim client value when
  /// the request carried X-Request-Id.
  std::string id;
  std::string method;
  std::string path;
  std::string dataset;  // filled by the API layer once resolved

  /// "ok", "shed" (admission 503), "error" (other 4xx/5xx),
  /// "parse_error", "read_timeout" (408), "write_timeout", "disconnect"
  /// (peer gone before the response flushed).
  std::string outcome = "ok";
  int status = 0;

  uint64_t bytes_in = 0;   // request head + body bytes
  uint64_t bytes_out = 0;  // serialized response bytes

  /// Nanoseconds per phase, indexed by TracePhase (kIdle stays 0). The
  /// phases partition the request: their sum is at most total_seconds,
  /// and the remainder is the completion handback to the loop thread.
  int64_t phase_ns[kTracePhaseCount] = {};
  double total_seconds = 0;  // request start -> finalized

  /// Whether the prepared state came from the Engine's cache.
  bool cache_hit = false;
  /// The PreparedSchema build this request ran; zero unless it was the
  /// builder (a cache hit, or a wait on another request's build).
  PrepareTimings build;

  // Bookkeeping (monotonic ns); not serialized.
  int64_t start_ns = 0;     // connection began owing this request
  int64_t dispatch_ns = 0;  // parse complete, handed to the pool

  int64_t& PhaseNs(TracePhase p) { return phase_ns[static_cast<int>(p)]; }
  int64_t PhaseNs(TracePhase p) const {
    return phase_ns[static_cast<int>(p)];
  }
};

/// The trace of the request this thread is currently handling, or
/// nullptr outside a traced handler. Layers below the transport use this
/// to annotate without plumbing a parameter through every signature.
RequestTrace* CurrentRequestTrace();

/// This thread's current phase. Async-signal-safe by construction: a
/// plain thread_local read with no lazy initialization (the profiler's
/// signal handler calls this).
TracePhase CurrentTracePhase();

/// RAII scope for one request phase, the one way a phase is timed. It
/// sets this thread's phase for the profiler until it exits (phases
/// nest: prepare/discover/sample/render run inside handler). When a
/// trace is current at entry, its exit adds its elapsed time to its own
/// phase and subtracts it from the enclosing scope's, so phase_ns holds
/// self times. `elapsed_seconds`, when given, receives the elapsed time.
/// The clock is read only when a trace is current or `elapsed_seconds`
/// is given.
class ScopedTracePhase {
 public:
  explicit ScopedTracePhase(TracePhase phase,
                            double* elapsed_seconds = nullptr);
  ~ScopedTracePhase();
  ScopedTracePhase(const ScopedTracePhase&) = delete;
  ScopedTracePhase& operator=(const ScopedTracePhase&) = delete;

  /// MonotonicNanos() at entry; 0 when the scope reads no clock.
  int64_t start_ns() const { return start_ns_; }

 private:
  const TracePhase phase_;
  ScopedTracePhase* const parent_;  // the enclosing scope on this thread
  RequestTrace* const trace_;       // the trace current at entry
  double* const elapsed_seconds_;
  int64_t start_ns_ = 0;
};

/// RAII scope installing `trace` as this thread's current trace;
/// restores the previous value (normally nullptr) on destruction.
class ScopedRequestTrace {
 public:
  explicit ScopedRequestTrace(RequestTrace* trace);
  ~ScopedRequestTrace();
  ScopedRequestTrace(const ScopedRequestTrace&) = delete;
  ScopedRequestTrace& operator=(const ScopedRequestTrace&) = delete;

 private:
  RequestTrace* previous_;
};

/// Thread-safe generator of 16-hex-char trace IDs, deterministic from
/// its seed (the repo-wide reproducibility rule: no entropy sources).
class TraceIdGenerator {
 public:
  explicit TraceIdGenerator(uint64_t seed = 0x7261636554726163ull);

  std::string Next();

  /// Restarts the sequence from `seed` (server startup applies the
  /// configured seed here).
  void Reseed(uint64_t seed);

 private:
  Mutex mu_{"trace_ids"};
  Rng rng_ EGP_GUARDED_BY(mu_);
};

}  // namespace egp

#endif  // EGP_COMMON_TRACE_H_
