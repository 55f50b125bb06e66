#include "core/brute_force.h"

#include <algorithm>

#include "common/strings.h"
#include "core/key_pairs.h"

namespace egp {

Result<Preview> BruteForceDiscover(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   const BruteForceOptions& options,
                                   DiscoveryStats* stats) {
  const uint32_t k = size.k;
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (size.n < k) {
    return Status::InvalidArgument(
        StrFormat("n=%u < k=%u: every table needs one non-key attribute",
                  size.n, k));
  }

  // Only types with at least one candidate non-key attribute can key a
  // table (Def. 1).
  const KeyPairs pairs(prepared, distance);
  const std::vector<TypeId>& eligible = pairs.eligible();
  if (eligible.size() < k) {
    return Status::NotFound(StrFormat(
        "only %zu eligible key types, need k=%u", eligible.size(), k));
  }

  DiscoveryStats local_stats;

  double best_score = -1.0;
  std::vector<TypeId> best_keys;

  // Iterative k-combination enumeration over `eligible` (faithful to
  // Alg. 1: each complete subset is distance-checked pairwise, no pruning
  // during enumeration).
  const size_t pool = eligible.size();
  std::vector<uint32_t> index(k);
  for (uint32_t i = 0; i < k; ++i) index[i] = i;
  std::vector<TypeId> keys(k);
  bool done = false;
  while (!done) {
    ++local_stats.subsets_enumerated;
    bool satisfies = true;
    for (uint32_t i = 0; i < k && satisfies; ++i) {
      for (uint32_t j = i + 1; j < k; ++j) {
        if (!pairs.Compatible(index[i], index[j])) {
          satisfies = false;
          break;
        }
      }
    }
    if (satisfies) {
      ++local_stats.subsets_scored;
      for (uint32_t i = 0; i < k; ++i) keys[i] = eligible[index[i]];
      const double score = ComposePreviewScore(prepared, keys, size.n);
      if (score > best_score) {
        best_score = score;
        best_keys = keys;
      }
    }

    if (options.max_subsets != 0 &&
        local_stats.subsets_enumerated >= options.max_subsets) {
      local_stats.truncated = true;
      break;
    }

    // Advance to the next combination.
    int pos = static_cast<int>(k) - 1;
    while (pos >= 0 && index[pos] == pool - k + pos) --pos;
    if (pos < 0) {
      done = true;
    } else {
      ++index[pos];
      for (uint32_t i = pos + 1; i < k; ++i) index[i] = index[i - 1] + 1;
    }
  }

  if (stats != nullptr) *stats = local_stats;
  if (best_keys.empty()) {
    return Status::NotFound("no preview satisfies the distance constraint");
  }
  return ComposePreview(prepared, best_keys, size.n);
}

}  // namespace egp
