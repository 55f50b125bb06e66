#include "core/apriori.h"

#include <algorithm>
#include <cstdint>
#include <utility>

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
  /// One past the last tuple of the join block of `idx`: the tuples after
  /// it that share its first arity − 1 elements.
  size_t BlockEnd(size_t idx) const {
    size_t end = idx + 1;
    while (end < count() &&
           std::equal(tuple(idx), tuple(idx) + arity - 1, tuple(end))) {
      ++end;
    }
    return end;
  }
};

/// A search node: a k-subset (leaf) = tuple `parent` of L_{k−1} plus the
/// position `last`, or a parent (`last` == kParent) standing for all its
/// extensions. The max-heap pops the highest bound first and, among equal
/// bounds, the lexicographically smallest (parent, last).
struct Node {
  static constexpr uint32_t kParent = UINT32_MAX;

  double bound;
  uint32_t parent;
  uint32_t last;

  bool operator<(const Node& other) const {
    if (bound != other.bound) return bound < other.bound;
    if (parent != other.parent) return parent > other.parent;
    return last > other.last;
  }
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
  // holds more than max_level_size tuples; the k-subsets count as one level.
  auto full = [&options](uint64_t count) {
    return options.max_level_size != 0 && count >= options.max_level_size;
  };
  auto too_large = [&options](uint32_t arity) {
    return Status::OutOfRange(StrFormat(
        "Apriori level %u exceeded max_level_size=%llu", arity,
        static_cast<unsigned long long>(options.max_level_size)));
  };

  // Build L_{k−1} level-wise. Tuples store positions in increasing order;
  // the lexicographic order of `flat` is maintained by the join.
  Level level;
  level.arity = 1;
  for (uint32_t i = 0; i < pairs.size(); ++i) level.flat.push_back(i);
  if (k >= 3) {
    // L2: all constraint-satisfying pairs.
    level.flat.clear();
    level.arity = 2;
    for (uint32_t i = 0; i < pairs.size(); ++i) {
      for (uint32_t j = i + 1; j < pairs.size(); ++j) {
        if (pairs.Compatible(i, j)) {
          if (full(level.count())) return too_large(2);
          level.flat.push_back(i);
          level.flat.push_back(j);
        }
      }
    }
  }
  // Join L_{i−1} with itself to get L_i: tuples of one block share their
  // first i − 2 elements, and a < b joins when their last elements are
  // compatible (every other pair lies inside one of the two).
  for (uint32_t arity = 3; arity < k && level.count() > 0; ++arity) {
    Level next;
    next.arity = arity;
    for (size_t block = 0; block < level.count();) {
      const size_t end = level.BlockEnd(block);
      for (size_t a = block; a < end; ++a) {
        const uint32_t last_a = level.tuple(a)[arity - 2];
        for (size_t b = a + 1; b < end; ++b) {
          const uint32_t last_b = level.tuple(b)[arity - 2];
          if (!pairs.Compatible(last_a, last_b)) continue;
          if (full(next.count())) return too_large(arity);
          next.flat.insert(next.flat.end(), level.tuple(a),
                           level.tuple(a) + arity - 1);
          next.flat.push_back(last_b);
        }
      }
      block = end;
    }
    level = std::move(next);
  }

  // Step 2, best-first: never materialize L_k. Every tuple of L_{k−1} is a
  // parent node bounded by its own terms joined with the suffix maxima of
  // the terms of the later last elements in its block (compatible or not,
  // so still a bound). Popping a parent generates its k-subsets as leaves
  // with exact bounds; popping a leaf scores it. Once the top bound is
  // below the best score, no remaining subset can reach it.
  const uint32_t r = size.n - k;
  std::vector<ComposeBound> terms(pairs.size());
  for (uint32_t i = 0; i < pairs.size(); ++i) {
    terms[i] = ComposeBound::OfType(prepared, pairs.eligible()[i], r);
  }
  auto parent_terms = [&](uint32_t parent) {
    ComposeBound sum;
    for (uint32_t i = 0; i + 1 < k; ++i) {
      sum = sum.Join(terms[level.tuple(parent)[i]]);
    }
    return sum;
  };

  std::vector<Node> heap;
  if (k == 1) {
    for (uint32_t i = 0; i < pairs.size(); ++i) {
      heap.push_back(Node{terms[i].Value(), 0, i});
    }
    local_stats.subsets_enumerated = pairs.size();
  } else {
    for (size_t block = 0; block < level.count();) {
      const size_t end = level.BlockEnd(block);
      ComposeBound later = terms[level.tuple(end - 1)[k - 2]];
      for (size_t a = end - 1; a-- > block;) {
        // `later` holds the maxima over the last elements of (a, end).
        const uint32_t parent = static_cast<uint32_t>(a);
        heap.push_back(Node{parent_terms(parent).Join(later).Value(), parent,
                            Node::kParent});
        later = later.Max(terms[level.tuple(a)[k - 2]]);
      }
      block = end;
    }
  }
  std::make_heap(heap.begin(), heap.end());

  double best_score = -1.0;
  Node best{0.0, 0, Node::kParent};
  // keys[0, k−1) hold the members of the parent last expanded or scored.
  std::vector<TypeId> keys(k);
  uint32_t keys_parent = Node::kParent;
  auto to_keys = [&](const Node& leaf) {
    if (leaf.parent != keys_parent) {
      for (uint32_t i = 0; i + 1 < k; ++i) {
        keys[i] = pairs.eligible()[level.tuple(leaf.parent)[i]];
      }
      keys_parent = leaf.parent;
    }
    keys[k - 1] = pairs.eligible()[leaf.last];
  };
  auto score = [&](const Node& leaf) {
    to_keys(leaf);
    ++local_stats.subsets_scored;
    const double s = ComposePreviewScore(prepared, keys, size.n);
    // Ties go to the lexicographically smaller subset, as in a scan of L_k.
    if (s > best_score ||
        (s == best_score && std::pair(leaf.parent, leaf.last) <
                                std::pair(best.parent, best.last))) {
      best_score = s;
      best = leaf;
    }
  };

  while (!heap.empty() && !BoundBelow(heap.front().bound, best_score)) {
    std::pop_heap(heap.begin(), heap.end());
    const Node node = heap.back();
    heap.pop_back();
    if (node.last != Node::kParent) {
      score(node);
      continue;
    }
    const ComposeBound base = parent_terms(node.parent);
    const uint32_t last_a = level.tuple(node.parent)[k - 2];
    for (size_t b = node.parent + 1, end = level.BlockEnd(node.parent);
         b < end; ++b) {
      const uint32_t last_b = level.tuple(b)[k - 2];
      if (!pairs.Compatible(last_a, last_b)) continue;
      if (full(local_stats.subsets_enumerated)) return too_large(k);
      ++local_stats.subsets_enumerated;
      const Node leaf{base.Join(terms[last_b]).Value(), node.parent, last_b};
      if (BoundBelow(leaf.bound, best_score)) continue;
      // A leaf that would be popped next anyway is scored right away,
      // sparing the heap; under uniform scores that is every leaf.
      if (heap.empty() || leaf.bound >= heap.front().bound) {
        score(leaf);
      } else {
        heap.push_back(leaf);
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }

  if (stats != nullptr) *stats = local_stats;
  if (best.last == Node::kParent) {
    return Status::NotFound("no k-subset satisfies the distance constraint");
  }
  to_keys(best);
  return ComposePreview(prepared, keys, size.n);
}

}  // namespace egp
