// Site-labeled lock-contention telemetry, the data plane behind
// egp::Mutex's instrumentation (common/mutex.h) and the server's
// /v1/debug/locks + egp_mutex_* metrics.
//
// A "site" is one named lock in the source tree ("engine.prepared_cache",
// "http.completions", ...). Mutexes constructed with a site label record,
// per site:
//
//   - contentions: acquisitions that found the lock held and had to wait,
//     each wait observed into a Histogram (egp_mutex_wait_seconds), whose
//     count is the contention count
//   - sampled hold times: 1 in kHoldSamplePeriod acquisitions measure
//     lock-held duration, so the cost on the hot path is a counter bump
//
// Everything here is lock-free by construction — it runs inside
// Mutex::Lock/Unlock, so taking a lock to record lock stats would be
// somewhere between slow and deadlock. The registry is a fixed array of
// slots claimed in order by CAS on the slot's name; counters are relaxed
// atomics (per-event ordering does not matter, totals do); snapshots
// read whatever is current.
//
// This header is included by common/mutex.h and must therefore stay
// dependency-free beyond the std-only common/histogram.h: no mutex.h, no
// logging, nothing that locks.
#ifndef EGP_COMMON_LOCK_STATS_H_
#define EGP_COMMON_LOCK_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"

namespace egp {

/// One acquisition in kHoldSamplePeriod measures hold time.
inline constexpr uint64_t kHoldSamplePeriod = 64;

/// One registered lock site. All counters are cumulative since process
/// start; padded-ish by virtue of being per-site structs in a static
/// array (false sharing between sites is acceptable — contended paths
/// are already paying a futex).
struct LockSite {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> acquisitions{0};  // all Lock()/TryLock() successes
  Histogram wait;  // one observation per acquisition that waited
  std::atomic<uint64_t> max_wait_nanos{0};
  std::atomic<uint64_t> hold_samples{0};  // acquisitions with timed hold
  std::atomic<uint64_t> hold_nanos{0};    // total nanos across samples
  std::atomic<uint64_t> max_hold_nanos{0};
};

/// Registers (or finds, by pointer-or-string equality) the site named
/// `name` and returns its slot, or nullptr when the fixed table is full
/// (the mutex then degrades to an unlabeled one — never an error).
/// Racing registrations of one name all get the same slot.
/// `name` must outlive the process (string literals, in practice).
LockSite* RegisterLockSite(const char* name);

/// Runtime gate read on every labeled Lock(); ON by default. The
/// compile-time gate is EGP_MUTEX_TELEMETRY (common/mutex.h).
bool LockTelemetryEnabled();
void SetLockTelemetryEnabled(bool enabled);

/// CLOCK_MONOTONIC nanos. Self-contained (not trace.h's MonotonicNanos)
/// so mutex.h pulls in nothing beyond this header.
int64_t LockStatsNanos();

/// Records one contended acquisition that waited `wait_nanos`.
void RecordLockWait(LockSite* site, int64_t wait_nanos);

/// Records one sampled hold of `hold_nanos`.
void RecordLockHold(LockSite* site, int64_t hold_nanos);

/// Counts the acquisition and decides whether this one times its hold.
bool ShouldSampleHold(LockSite* site);

/// Point-in-time copy of one site, for /metrics and /v1/debug/locks.
struct LockSiteSnapshot {
  const char* name = nullptr;
  uint64_t acquisitions = 0;
  Histogram::Snapshot wait;  // count() is the contention count
  double max_wait_seconds = 0;
  uint64_t hold_samples = 0;
  double hold_seconds = 0;
  double max_hold_seconds = 0;
};

/// All registered sites, in registration order.
std::vector<LockSiteSnapshot> SnapshotLockSites();

}  // namespace egp

#endif  // EGP_COMMON_LOCK_STATS_H_
