// The traced in-process replay: calls each layer's public entry point
// directly (request parsing, the prepared-schema lookup, discovery,
// sampling, JSON rendering) and PreviewService::Handle around the same
// request, with spans recorded by this file alone. The program itself
// carries no tracing for this.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "server/api.h"

namespace perfbench {

/// One timed interval. Spans of one replayed request share `request`;
/// layer spans name their caller's span in `parent` (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct ReplayStats {
  std::vector<double> parse_us, lookup_us, discover_us, sample_us,
      render_us, handle_us, api_self_us;
  uint64_t requests = 0;
  uint64_t sampled_requests = 0;
  uint64_t subsets = 0;
  uint64_t values = 0;
  uint64_t bytes = 0;
  /// Pipeline wall time with spans, and the same requests without them.
  double traced_seconds = 0.0;
  double untraced_seconds = 0.0;
  /// Replayed bodies whose rendering differed from Handle's response.
  uint64_t mismatches = 0;
  std::vector<Span> spans;
};

/// Replays `count` request bodies against `service` in rounds for about
/// `budget_seconds` (at least three rounds). Each round makes a traced
/// pass (Handle, then the layer pipeline under spans) and an untraced
/// pass (Handle, then the pipeline timed only as a whole), alternating
/// which goes first. `body_at(round, i)` gives the i-th body of a round,
/// so a cold request can get a configuration no earlier round built.
ReplayStats Replay(
    egp::PreviewService& service, size_t count,
    const std::function<std::string(uint64_t round, size_t index)>& body_at,
    double budget_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
