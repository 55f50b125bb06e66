// Brute-force optimal preview discovery (Alg. 1).
//
// Enumerates every k-subset of eligible key types, filters by the pairwise
// distance constraint, and scores each subset's best preview (Theorem 3).
// Exponential in k; kept as the correctness oracle and the baseline of the
// Fig. 8/9 performance experiments.
#ifndef EGP_CORE_BRUTE_FORCE_H_
#define EGP_CORE_BRUTE_FORCE_H_

#include <cstdint>

#include "common/result.h"
#include "core/compose.h"
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

/// Instrumentation shared by the discovery algorithms.
struct DiscoveryStats {
  /// Key sets generated: every k-subset for brute force (feasible or not),
  /// the distance-feasible k-subsets Apriori generates before its bound
  /// stops it, and the distinct key sets of every beam level, partial ones
  /// included, summed over widening attempts.
  uint64_t subsets_enumerated = 0;
  /// Key sets passed to ComposePreviewScore: every feasible one for brute
  /// force, those whose score bound could still reach the best for
  /// Apriori and beam search.
  uint64_t subsets_scored = 0;
  bool truncated = false;  // brute force stopped early by max_subsets
};

struct BruteForceOptions {
  /// Stop after enumerating this many subsets (0 = unlimited). When hit,
  /// the best preview so far is returned and stats->truncated is set; used
  /// by the benchmark harness to extrapolate infeasible configurations.
  uint64_t max_subsets = 0;
};

Result<Preview> BruteForceDiscover(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   const BruteForceOptions& options = {},
                                   DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_BRUTE_FORCE_H_
