// Approximate preview discovery by beam search (extension).
//
// §5.3 notes that "any more efficient or even approximate algorithm ...
// can be plugged into" the two-step tight/diverse framework. This module
// supplies such an algorithm: a beam over partial key sets, scoring each
// partial with the optimistic ComposePreviewScore (the attributes a
// partial set would get with the full budget n — an admissible ranking
// heuristic because adding tables can only redistribute budget). Runs in
// O(k · beam · K) score evaluations regardless of constraint shape, so it
// stays fast exactly where Apriori degenerates (diverse d=2, tight d near
// the diameter); the trade is optimality, quantified by
// bench_ablation_beam.
//
// Each level is built in flat arrays of sorted key tuples, not one vector
// per partial. Level 1 keeps every singleton unscored, so level 2 is
// every compatible pair in lexicographic order, generated directly. Each
// later level writes the extensions of every kept partial (the types
// compatible with all its members, from one KeyPairs bit matrix) as
// tuples, each key set once: by the first kept partial it contains,
// found by hashing the key set less one member. A level keeps the best
// beam_width tuples under (score desc, keys asc), the last level only its
// best one. Tuples are scored in descending ComposeBound order (compose.h,
// with r = n − level), and scoring stops once the next bound is below the
// beam_width-th best score, so the kept beam equals scoring every tuple.
// A level generates at most C(eligible, 2) pairs at level 2 and beam_width
// × eligible tuples later; widening repeats the search at most
// log4(max_beam_width / beam_width) + 1 times.
#ifndef EGP_CORE_BEAM_SEARCH_H_
#define EGP_CORE_BEAM_SEARCH_H_

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

struct BeamSearchOptions {
  uint32_t beam_width = 8;
  /// When the beam dead-ends under a sparse constraint (no extension of
  /// any kept partial is feasible) the search retries with a 4× wider
  /// beam, up to this cap, before reporting NotFound. Set equal to
  /// beam_width to disable widening.
  uint32_t max_beam_width = 1024;
};

Result<Preview> BeamSearchDiscover(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   const BeamSearchOptions& options = {},
                                   DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_BEAM_SEARCH_H_
