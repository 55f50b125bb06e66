// ComputePreview (§5, Alg. 1 lines 5–14 / Alg. 3 line 17): given k chosen
// key types, build the best preview by Theorem 3 — each table takes its
// top-scoring candidate, then the remaining n−k slots are filled by a merge
// of the per-type sorted candidate lists, weighted by S(τ).
//
// The merge allocates nothing for up to kComposeInlineKeys keys: it keeps
// at most one cursor per table in a fixed array and picks the best by a
// linear scan (one spill buffer holds the cursors of larger k). Scores
// add the top-1s in key order, then the picked candidates best first, so
// every score equals a max-heap merge's bit for bit (compose_test keeps
// that merge as its reference).
//
// ComposeBound bounds that score from above in O(1) per key type, which is
// what lets Apriori and beam search skip the merge for most key sets.
#ifndef EGP_CORE_COMPOSE_H_
#define EGP_CORE_COMPOSE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/result.h"
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

/// Key sets up to this size keep their merge cursors on the stack.
inline constexpr size_t kComposeInlineKeys = 8;

/// Returns the optimal preview over exactly the given key types with at
/// most n total non-key attributes. Fails if any key type has no candidate
/// non-key attribute or if n < keys.size().
Result<Preview> ComposePreview(const PreparedSchema& prepared,
                               const std::vector<TypeId>& keys, uint32_t n);

/// Score-only variant (no preview materialization) for hot enumeration
/// loops; returns a negative value if infeasible.
double ComposePreviewScore(const PreparedSchema& prepared,
                           const std::vector<TypeId>& keys, uint32_t n);

/// An upper bound on ComposePreviewScore(keys, n) from per-type terms, with
/// r = n − |keys| slots left after the top-1 attributes:
///
///   UB(keys) = Σ top1 + min(r · max w2, Σ tail)
///
/// where top1(t) = TableScore(t, 1); w2(t) = S(t)·c₂(t), the best pick t
/// offers (c₂ is its second-best candidate's score, 0 if it has only
/// one); and tail(t) = TableScore(t, min(|Γt|, r+1)) − top1(t), the most
/// t's picks can add. Every pick is at most max w2 and no type gives more
/// than its tail, so the bound holds whenever S(τ) ≥ 0 and every candidate
/// score is ≥ 0, as under the coverage, entropy and randomwalk measures.
///
/// OfType builds the terms for one r, so Value() needs none. Value() is
/// monotone in every term, so the terms of a key set joined with the
/// element-wise Max of several types' terms bound the key set joined with
/// any one of them.
struct ComposeBound {
  double top1 = 0.0;   // Σ top1
  double picks = 0.0;  // r · max w2
  double tail = 0.0;   // Σ tail

  static ComposeBound OfType(const PreparedSchema& prepared, TypeId t,
                             uint32_t r);
  /// The terms of the union of two disjoint key sets.
  ComposeBound Join(const ComposeBound& other) const {
    return {top1 + other.top1, std::max(picks, other.picks),
            tail + other.tail};
  }
  /// Element-wise max: terms at least as large as either's.
  ComposeBound Max(const ComposeBound& other) const {
    return {std::max(top1, other.top1), std::max(picks, other.picks),
            std::max(tail, other.tail)};
  }
  double Value() const { return top1 + std::min(picks, tail); }
};

/// Whether a key set whose ComposeBound value is `bound` scores strictly
/// below `best` for certain. The merge adds in another order than the
/// bound, so a score may exceed its bound by a few ulps; the relative slack
/// absorbs that.
inline bool BoundBelow(double bound, double best) {
  return bound + 1e-9 * std::abs(bound) < best;
}

}  // namespace egp

#endif  // EGP_CORE_COMPOSE_H_
