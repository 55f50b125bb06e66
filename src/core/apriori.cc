#include "core/apriori.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/strings.h"
#include "core/compose.h"
#include "core/key_pairs.h"

namespace egp {
namespace {

/// A partial node of the prefix tree: a sorted set of positions in
/// KeyPairs::eligible(), stored as its largest member and its parent.
struct Prefix {
  static constexpr uint32_t kRoot = UINT32_MAX;

  ComposeBound terms;  // the members' terms, joined
  uint32_t parent;     // index of the parent node, or kRoot
  uint32_t last;       // the largest member
  uint32_t size;       // number of members
};

/// A heap entry: the partial node `node` waiting to be expanded (`last` ==
/// kExpand), or the k-subset `node` + `last` waiting to be scored. The
/// max-heap pops the highest bound first and, among equal bounds, the
/// latest node, so a search whose bound prunes nothing runs depth-first
/// and its heap stays small.
struct Entry {
  static constexpr uint32_t kExpand = UINT32_MAX;

  double bound;
  uint32_t node;
  uint32_t last;

  bool operator<(const Entry& other) const {
    if (bound != other.bound) return bound < other.bound;
    if (node != other.node) return node < other.node;
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
  const uint32_t num_eligible = pairs.size();
  if (num_eligible < k) {
    return Status::NotFound(StrFormat(
        "only %u eligible key types, need k=%u", num_eligible, k));
  }
  const size_t words = pairs.words();

  // The bound of a partial node P with candidates C, j = k − |P| members
  // short, joins P's terms with the j largest top1 and tail terms in C
  // and C's largest picks term: every k-subset below it has terms no
  // larger, and Value() is monotone in each.
  const uint32_t r = size.n - k;
  std::vector<ComposeBound> terms(num_eligible);
  for (uint32_t i = 0; i < num_eligible; ++i) {
    terms[i] = ComposeBound::OfType(prepared, pairs.eligible()[i], r);
  }
  // largest_top1 and largest_tail hold the j largest terms seen so far,
  // in descending order.
  std::vector<double> largest_top1(k);
  std::vector<double> largest_tail(k);
  auto insert = [](std::vector<double>& largest, uint32_t& filled,
                   uint32_t j, double value) {
    if (filled == j && value <= largest[j - 1]) return;
    uint32_t at = filled < j ? filled++ : j - 1;
    for (; at > 0 && largest[at - 1] < value; --at) {
      largest[at] = largest[at - 1];
    }
    largest[at] = value;
  };
  auto partial_bound = [&](const ComposeBound& prefix, const uint64_t* cands,
                           uint32_t j) {
    uint32_t top1_filled = 0;
    uint32_t tail_filled = 0;
    ComposeBound rest;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = cands[w]; bits != 0; bits &= bits - 1) {
        const ComposeBound& term =
            terms[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
        insert(largest_top1, top1_filled, j, term.top1);
        insert(largest_tail, tail_filled, j, term.tail);
        rest.picks = std::max(rest.picks, term.picks);
      }
    }
    for (uint32_t i = 0; i < top1_filled; ++i) rest.top1 += largest_top1[i];
    for (uint32_t i = 0; i < tail_filled; ++i) rest.tail += largest_tail[i];
    return prefix.Join(rest).Value();
  };

  DiscoveryStats local_stats;
  // Every generated node, partial or leaf, counts against the cap.
  uint64_t generated = 0;
  auto too_large = [&options] {
    return Status::OutOfRange(StrFormat(
        "Apriori search generated more than max_level_size=%llu key sets",
        static_cast<unsigned long long>(options.max_level_size)));
  };

  // The partial nodes, each with its candidates in `node_cands` (words
  // per node): the types after its last member compatible with all of
  // its members.
  std::vector<Prefix> nodes;
  std::vector<uint64_t> node_cands;
  std::vector<Entry> heap;

  double best_score = -1.0;
  std::vector<TypeId> best_keys;
  std::vector<TypeId> keys(k);
  uint32_t keys_node = Prefix::kRoot;  // whose members keys[0, k−1) hold
  auto score = [&](uint32_t node, uint32_t last) {
    if (node != keys_node) {
      for (uint32_t at = node, i = k - 1; i-- > 0; at = nodes[at].parent) {
        keys[i] = pairs.eligible()[nodes[at].last];
      }
      keys_node = node;
    }
    keys[k - 1] = pairs.eligible()[last];
    ++local_stats.subsets_scored;
    const double s = ComposePreviewScore(prepared, keys, size.n);
    // Ties go to the lexicographically smaller key set, as in a scan of
    // every k-subset in order.
    if (s > best_score || (s == best_score && keys < best_keys)) {
      best_score = s;
      best_keys = keys;
    }
  };

  // Generates the children of the node (`node`, `prefix`) whose candidates
  // are `cands`: a leaf for each candidate when one member is missing,
  // else a partial node for each candidate that leaves enough candidates
  // after it. A leaf that would be popped next anyway is scored right
  // away, sparing the heap; under uniform scores that is every leaf.
  std::vector<uint64_t> child_cands(words);
  auto expand = [&](uint32_t node, const ComposeBound& prefix,
                    uint32_t prefix_size, const uint64_t* cands) -> Status {
    const uint32_t missing = k - prefix_size - 1;  // after the child
    uint32_t after = 0;  // candidates after the current one
    for (size_t w = 0; w < words; ++w) after += std::popcount(cands[w]);
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = cands[w]; bits != 0; bits &= bits - 1) {
        const uint32_t t =
            static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        if (--after < missing) return Status::OK();
        if (options.max_level_size != 0 &&
            generated >= options.max_level_size) {
          return too_large();
        }
        ++generated;
        const ComposeBound child = prefix.Join(terms[t]);
        if (missing == 0) {
          ++local_stats.subsets_enumerated;
          const double bound = child.Value();
          if (BoundBelow(bound, best_score)) continue;
          if (heap.empty() || bound >= heap.front().bound) {
            score(node, t);
          } else {
            heap.push_back(Entry{bound, node, t});
            std::push_heap(heap.begin(), heap.end());
          }
          continue;
        }
        const uint64_t* row = pairs.Row(t);
        uint32_t count = 0;
        for (size_t v = 0; v < words; ++v) {
          uint64_t word = cands[v] & row[v];
          if (v < w) {
            word = 0;
          } else if (v == w) {
            word &= t % 64 == 63 ? 0 : ~uint64_t{0} << (t % 64 + 1);
          }
          child_cands[v] = word;
          count += std::popcount(word);
        }
        if (count < missing) continue;
        const double bound = partial_bound(child, child_cands.data(), missing);
        if (BoundBelow(bound, best_score)) continue;
        const uint32_t index = static_cast<uint32_t>(nodes.size());
        nodes.push_back(Prefix{child, node, t, prefix_size + 1});
        node_cands.insert(node_cands.end(), child_cands.begin(),
                          child_cands.end());
        heap.push_back(Entry{bound, index, Entry::kExpand});
        std::push_heap(heap.begin(), heap.end());
      }
    }
    return Status::OK();
  };

  // The root's candidates are every eligible type.
  std::vector<uint64_t> cands(words, ~uint64_t{0});
  if (num_eligible % 64 != 0) {
    cands[words - 1] = (uint64_t{1} << (num_eligible % 64)) - 1;
  }
  EGP_RETURN_IF_ERROR(expand(Prefix::kRoot, ComposeBound{}, 0, cands.data()));
  // Once the top bound is below the best score, no remaining k-subset can
  // reach it.
  while (!heap.empty() && !BoundBelow(heap.front().bound, best_score)) {
    std::pop_heap(heap.begin(), heap.end());
    const Entry entry = heap.back();
    heap.pop_back();
    if (entry.last != Entry::kExpand) {
      score(entry.node, entry.last);
      continue;
    }
    // Expanding appends to node_cands, so work on a copy.
    const Prefix prefix = nodes[entry.node];
    std::copy_n(&node_cands[size_t{entry.node} * words], words, cands.begin());
    EGP_RETURN_IF_ERROR(
        expand(entry.node, prefix.terms, prefix.size, cands.data()));
  }

  if (stats != nullptr) *stats = local_stats;
  if (best_keys.empty()) {
    return Status::NotFound("no k-subset satisfies the distance constraint");
  }
  return ComposePreview(prepared, best_keys, size.n);
}

}  // namespace egp
