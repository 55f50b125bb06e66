// The benchmark's workloads: which requests each one sends, how (closed
// or open loop), over how many connections. Every body is derived from
// the seed; the server only ever sees these generated inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadPlan {
  std::string name;
  /// Closed loop: `connections` callers, each waiting for its reply.
  /// Open loop: `connections - 1` hot senders on a fixed schedule plus
  /// one cold sender.
  bool open_loop = false;
  int connections = 1;
  /// The distinct hot request bodies; callers cycle through them.
  std::vector<std::string> pool;
  /// One body per hot measure configuration: served once during set-up.
  std::vector<std::string> warmers;
  double hot_rate = 0.0;   // open loop only, requests/s
  double cold_rate = 0.0;  // open loop only, requests/s
  uint64_t seed = 0;
};

/// Builds `name`'s plan for `seed` on a client side of `client_cpus`
/// cores. False for an unknown name.
bool MakePlan(const std::string& name, uint64_t seed, int client_cpus,
              WorkloadPlan* plan);

/// The `index`-th cold request of a run: randomwalk/entropy scoring with
/// a smoothing no other request of the run uses, so the server must
/// build a new PreparedSchema for it.
std::string ColdBody(uint64_t seed, uint64_t index);

/// A per-caller order over `pool_size` entries: every entry once per
/// cycle, in an order derived from (seed, caller).
std::vector<size_t> CallerOrder(uint64_t seed, int caller, size_t pool_size);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
