// Apriori-style optimal tight/diverse preview discovery (Alg. 3).
//
// Step 1 finds the (k−1)-subsets of key types whose pairwise distances
// satisfy the constraint, by level-wise joining of (i−1)-subsets that
// share an (i−2)-prefix — only the two differing last elements need a
// distance check, exactly as Apriori candidate generation (correct by
// induction: every other pair lies inside one of the two joined subsets).
//
// Step 2 is an exact best-first branch-and-bound over the k-subsets that
// join would produce; L_k itself is never materialized. Each (k−1)-subset
// is a parent node in one max-heap, bounded by ComposeBound (compose.h)
// over its members plus the best terms of its join block. Popping a parent
// generates its distance-feasible k-subsets as leaves with their own
// bounds; popping a leaf scores it with ComposePreviewScore (Theorem 3).
// The search stops once the top bound is below the best score. Ties go to
// the lexicographically smaller key set, so the preview and its score bits
// equal those of scoring every k-subset in order (apriori_test keeps that
// scan as its oracle). The bound needs S(τ) ≥ 0 and non-negative candidate
// scores, which every registered measure gives.
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
  /// exceeds it. The k-subsets step 2 generates count as level k. Guards
  /// the degenerate constraints the paper flags (tight with d near the
  /// diameter, diverse with tiny d). Discover sets it to
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
