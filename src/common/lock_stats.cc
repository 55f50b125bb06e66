#include "common/lock_stats.h"

#include <time.h>

#include <cstring>

namespace egp {
namespace {

// Fixed table: global Mutex objects register during static
// initialization, so this must be constant-initialized (zero atomics)
// with no dynamic allocation and no guard variable.
constexpr size_t kMaxLockSites = 128;
constinit LockSite g_sites[kMaxLockSites];
std::atomic<bool> g_enabled{true};

void UpdateMax(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

LockSite* RegisterLockSite(const char* name) {
  if (name == nullptr) return nullptr;
  // Dedup by name so every Engine (each with its own cache Mutex) shares
  // one "engine.prepared_cache" slot. Slots are claimed in order by CAS
  // on the name, so named slots form a prefix and a name can only land
  // in the first slot that did not already hold another name: a racer
  // that loses the CAS re-reads the winner's name and matches it.
  // Linear scan: registration happens once per Mutex construction, not
  // per acquisition.
  for (LockSite& site : g_sites) {
    const char* existing = site.name.load(std::memory_order_acquire);
    if (existing == nullptr &&
        site.name.compare_exchange_strong(existing, name,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      return &site;
    }
    if (existing == name || std::strcmp(existing, name) == 0) return &site;
  }
  return nullptr;  // table full: degrade to unlabeled
}

bool LockTelemetryEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void SetLockTelemetryEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

int64_t LockStatsNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void RecordLockWait(LockSite* site, int64_t wait_nanos) {
  if (wait_nanos < 0) wait_nanos = 0;
  site->wait.Observe(wait_nanos);
  UpdateMax(site->max_wait_nanos, static_cast<uint64_t>(wait_nanos));
}

void RecordLockHold(LockSite* site, int64_t hold_nanos) {
  if (hold_nanos < 0) hold_nanos = 0;
  const auto nanos = static_cast<uint64_t>(hold_nanos);
  site->hold_samples.fetch_add(1, std::memory_order_relaxed);
  site->hold_nanos.fetch_add(nanos, std::memory_order_relaxed);
  UpdateMax(site->max_hold_nanos, nanos);
}

bool ShouldSampleHold(LockSite* site) {
  const uint64_t n = site->acquisitions.fetch_add(1, std::memory_order_relaxed);
  return n % kHoldSamplePeriod == 0;
}

std::vector<LockSiteSnapshot> SnapshotLockSites() {
  std::vector<LockSiteSnapshot> out;
  for (const LockSite& site : g_sites) {
    const char* name = site.name.load(std::memory_order_acquire);
    if (name == nullptr) break;  // named slots form a prefix
    LockSiteSnapshot snap;
    snap.name = name;
    snap.acquisitions = site.acquisitions.load(std::memory_order_relaxed);
    snap.wait = site.wait.snapshot();
    snap.max_wait_seconds =
        static_cast<double>(
            site.max_wait_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    snap.hold_samples = site.hold_samples.load(std::memory_order_relaxed);
    snap.hold_seconds =
        static_cast<double>(site.hold_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    snap.max_hold_seconds =
        static_cast<double>(
            site.max_hold_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    out.push_back(snap);
  }
  return out;
}

}  // namespace egp
