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
#ifndef EGP_CORE_COMPOSE_H_
#define EGP_CORE_COMPOSE_H_

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

}  // namespace egp

#endif  // EGP_CORE_COMPOSE_H_
