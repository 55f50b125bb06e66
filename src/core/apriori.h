// Apriori-style optimal tight/diverse preview discovery (Alg. 3).
//
// Step 1 finds all k-subsets of key types whose pairwise distances satisfy
// the constraint, by level-wise joining of (i−1)-subsets that share an
// (i−2)-prefix — only the two differing last elements need a distance
// check, exactly as Apriori candidate generation (correct by induction:
// every other pair lies inside one of the two joined subsets).
// Step 2 scores each surviving subset with ComputePreview (Theorem 3).
#ifndef EGP_CORE_APRIORI_H_
#define EGP_CORE_APRIORI_H_

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

struct AprioriOptions {
  /// Abort with OutOfRange before a level would hold more than this many
  /// subsets (0 = unlimited); checked per emitted tuple, so no level ever
  /// exceeds it. Guards the degenerate constraints the paper flags (tight
  /// with d near the diameter, diverse with tiny d). Discover sets it to
  /// kMaxAprioriLevelSize.
  uint64_t max_level_size = 0;
};

Result<Preview> AprioriDiscover(const PreparedSchema& prepared,
                                const SizeConstraint& size,
                                const DistanceConstraint& distance,
                                const AprioriOptions& options = {},
                                DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_APRIORI_H_
