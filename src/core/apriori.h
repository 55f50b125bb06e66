// Apriori-style optimal tight/diverse preview discovery (Alg. 3).
//
// Alg. 3 finds the k-subsets of key types whose pairwise distances
// satisfy the constraint, then scores each with Theorem 3's merge. Here
// both steps are one exact best-first branch-and-bound over the prefix
// tree of sorted key sets; no level is ever built. A node is a prefix P
// plus its candidates C: the eligible types after P's last member that
// are compatible with every member (the AND of the members' KeyPairs
// rows), so every k-subset below P is P plus k − |P| members of C, and
// each is generated once. A node's bound joins ComposeBound (compose.h)
// over P with, over C, the j = k − |P| largest top1 and tail terms and
// the largest picks term; a node with fewer than j candidates dies.
// Popping a node generates its children; popping a k-subset scores it
// with ComposePreviewScore (Theorem 3). The search stops once the top
// bound is below the best score. Ties go to the lexicographically
// smaller key set, so the preview and its score bits equal those of
// scoring every feasible k-subset in order (apriori_test keeps that scan
// as its oracle). The bound needs S(τ) ≥ 0 and non-negative candidate
// scores, which every registered measure gives.
#ifndef EGP_CORE_APRIORI_H_
#define EGP_CORE_APRIORI_H_

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

struct AprioriOptions {
  /// Abort with OutOfRange before the search generates more than this
  /// many nodes, prefixes and k-subsets alike (0 = unlimited). Guards the
  /// degenerate constraints the paper flags (tight with d near the
  /// diameter, diverse with tiny d) when ties keep the bound from
  /// pruning. Discover sets it to kMaxAprioriLevelSize.
  uint64_t max_level_size = 0;
};

Result<Preview> AprioriDiscover(const PreparedSchema& prepared,
                                const SizeConstraint& size,
                                const DistanceConstraint& distance,
                                const AprioriOptions& options = {},
                                DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_APRIORI_H_
