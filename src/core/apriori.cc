#include "core/apriori.h"

#include <algorithm>

#include "common/strings.h"
#include "core/compose.h"
#include "core/key_pairs.h"

namespace egp {
namespace {

/// Flat storage of fixed-arity sorted tuples of positions in
/// KeyPairs::eligible(), lexicographically ordered by construction (the
/// same order as their TypeIds, which ascend with the position).
struct Level {
  uint32_t arity = 0;
  std::vector<uint32_t> flat;  // size = arity * count

  size_t count() const { return arity == 0 ? 0 : flat.size() / arity; }
  const uint32_t* tuple(size_t idx) const { return &flat[idx * arity]; }
};

}  // namespace

Result<Preview> AprioriDiscover(const PreparedSchema& prepared,
                                const SizeConstraint& size,
                                const DistanceConstraint& distance,
                                const AprioriOptions& options,
                                DiscoveryStats* stats) {
  const uint32_t k = size.k;
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (size.n < k) {
    return Status::InvalidArgument(
        StrFormat("n=%u < k=%u: every table needs one non-key attribute",
                  size.n, k));
  }

  const KeyPairs pairs(prepared, distance);
  if (pairs.size() < k) {
    return Status::NotFound(StrFormat(
        "only %u eligible key types, need k=%u", pairs.size(), k));
  }

  DiscoveryStats local_stats;
  // The level cap is checked before every emitted tuple, so no level ever
  // holds more than max_level_size tuples.
  auto full = [&options](const Level& l) {
    return options.max_level_size != 0 &&
           l.flat.size() >= options.max_level_size * l.arity;
  };
  auto too_large = [&options](uint32_t arity) {
    return Status::OutOfRange(StrFormat(
        "Apriori level %u exceeded max_level_size=%llu", arity,
        static_cast<unsigned long long>(options.max_level_size)));
  };

  // Build L_k level-wise. Tuples store positions in increasing order; the
  // lexicographic order of `flat` is maintained by the join.
  Level level;
  if (k == 1) {
    level.arity = 1;
    for (uint32_t i = 0; i < pairs.size(); ++i) level.flat.push_back(i);
  } else {
    // L2: all constraint-satisfying pairs.
    level.arity = 2;
    for (uint32_t i = 0; i < pairs.size(); ++i) {
      for (uint32_t j = i + 1; j < pairs.size(); ++j) {
        if (pairs.Compatible(i, j)) {
          if (full(level)) return too_large(2);
          level.flat.push_back(i);
          level.flat.push_back(j);
        }
      }
    }
    // Join L_{i-1} with itself to get L_i.
    for (uint32_t arity = 3; arity <= k && level.count() > 0; ++arity) {
      Level next;
      next.arity = arity;
      const uint32_t prefix_len = arity - 2;
      size_t block_start = 0;
      const size_t count = level.count();
      while (block_start < count) {
        // A block shares the first (arity-2) elements.
        size_t block_end = block_start + 1;
        while (block_end < count &&
               std::equal(level.tuple(block_start),
                          level.tuple(block_start) + prefix_len,
                          level.tuple(block_end))) {
          ++block_end;
        }
        for (size_t a = block_start; a < block_end; ++a) {
          const uint32_t last_a = level.tuple(a)[arity - 2];
          for (size_t b = a + 1; b < block_end; ++b) {
            const uint32_t last_b = level.tuple(b)[arity - 2];
            // Tuples are sorted, so last_a < last_b within a block.
            if (!pairs.Compatible(last_a, last_b)) continue;
            if (full(next)) return too_large(arity);
            next.flat.insert(next.flat.end(), level.tuple(a),
                             level.tuple(a) + arity - 1);
            next.flat.push_back(last_b);
          }
        }
        block_start = block_end;
      }
      level = std::move(next);
    }
  }

  if (level.count() == 0 || level.arity != k) {
    if (stats != nullptr) *stats = local_stats;
    return Status::NotFound("no k-subset satisfies the distance constraint");
  }

  // Step 2: score every qualifying k-subset.
  double best_score = -1.0;
  std::vector<TypeId> best_keys;
  std::vector<TypeId> keys(k);
  for (size_t idx = 0; idx < level.count(); ++idx) {
    const uint32_t* tuple = level.tuple(idx);
    for (uint32_t i = 0; i < k; ++i) keys[i] = pairs.eligible()[tuple[i]];
    ++local_stats.subsets_enumerated;
    ++local_stats.subsets_scored;
    const double score = ComposePreviewScore(prepared, keys, size.n);
    if (score > best_score) {
      best_score = score;
      best_keys = keys;
    }
  }
  if (stats != nullptr) *stats = local_stats;
  if (best_keys.empty()) {
    return Status::NotFound("no preview satisfies the distance constraint");
  }
  return ComposePreview(prepared, best_keys, size.n);
}

}  // namespace egp
