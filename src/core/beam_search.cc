#include "core/beam_search.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/rng.h"
#include "common/strings.h"
#include "core/compose.h"
#include "core/key_pairs.h"

namespace egp {
namespace {

/// A tuple of the level being built, by its position in the level's flat
/// tuple array, ranked by its ComposeBound value while it waits to be
/// scored and by its optimistic ComposePreviewScore once it is.
struct Ranked {
  double value;
  uint32_t index;
};

Result<Preview> BeamSearchAttempt(const PreparedSchema& prepared,
                                  const SizeConstraint& size,
                                  const DistanceConstraint& distance,
                                  const BeamSearchOptions& options,
                                  DiscoveryStats* stats) {
  const uint32_t k = size.k;
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (size.n < k) {
    return Status::InvalidArgument(
        StrFormat("n=%u < k=%u: every table needs one non-key attribute",
                  size.n, k));
  }
  if (options.beam_width == 0) {
    return Status::InvalidArgument("beam_width must be positive");
  }

  const KeyPairs pairs(prepared, distance);
  const uint32_t num_eligible = pairs.size();
  if (num_eligible < k) {
    return Status::NotFound(StrFormat(
        "only %u eligible key types, need k=%u", num_eligible, k));
  }

  DiscoveryStats local_stats;

  // Every level lives in flat arrays of `arity`-long strictly increasing
  // tuples of positions in pairs.eligible() (whose TypeIds ascend with the
  // position, so tuples order as their key sets do): `level` holds the
  // distinct tuples being built, `beam` the kept ones, best first. The
  // buffers are reused across levels.
  uint32_t arity = 1;
  std::vector<uint32_t> level(num_eligible);
  std::iota(level.begin(), level.end(), 0u);
  std::vector<uint32_t> beam;
  std::vector<ComposeBound> terms(num_eligible);
  std::vector<Ranked> queue;
  std::vector<Ranked> kept;
  std::vector<uint64_t> extensions(pairs.words());
  std::vector<TypeId> keys;  // scoring argument
  auto tuple = [&](uint32_t index) { return &level[size_t{index} * arity]; };
  auto to_keys = [&](const uint32_t* positions, uint32_t count) {
    keys.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      keys[i] = pairs.eligible()[positions[i]];
    }
  };
  // Score descending, then keys ascending: a total order on distinct
  // tuples, so the kept beam is deterministic.
  auto better = [&](const Ranked& a, const Ranked& b) {
    if (a.value != b.value) return a.value > b.value;
    return std::lexicographical_compare(tuple(a.index), tuple(a.index) + arity,
                                        tuple(b.index),
                                        tuple(b.index) + arity);
  };
  auto by_bound = [](const Ranked& a, const Ranked& b) {
    if (a.value != b.value) return a.value > b.value;
    return a.index < b.index;
  };
  // Keeps the best `width` tuples of `level` under `better`, in order, as
  // the beam. Tuples are scored in by_bound order; once the next bound is
  // below the width-th best score, no unscored tuple can enter. The first
  // `width` are scored whatever their bounds, and after them only tuples
  // whose bound reaches the width-th best score so far can be, so only
  // those are sorted.
  auto keep = [&](size_t width) {
    const uint32_t r = size.n - arity;
    for (uint32_t i = 0; i < num_eligible; ++i) {
      terms[i] = ComposeBound::OfType(prepared, pairs.eligible()[i], r);
    }
    queue.clear();
    for (uint32_t index = 0; index < level.size() / arity; ++index) {
      ComposeBound bound;
      for (uint32_t i = 0; i < arity; ++i) {
        bound = bound.Join(terms[tuple(index)[i]]);
      }
      queue.push_back(Ranked{bound.Value(), index});
    }
    kept.clear();  // a heap whose front is the worst kept tuple
    auto score = [&](const Ranked& ranked) {
      to_keys(tuple(ranked.index), arity);
      ++local_stats.subsets_scored;
      const Ranked scored{ComposePreviewScore(prepared, keys, size.n),
                          ranked.index};
      if (kept.size() < width) {
        kept.push_back(scored);
        std::push_heap(kept.begin(), kept.end(), better);
      } else if (better(scored, kept.front())) {
        std::pop_heap(kept.begin(), kept.end(), better);
        kept.back() = scored;
        std::push_heap(kept.begin(), kept.end(), better);
      }
    };
    const auto head = queue.begin() + std::min(width, queue.size());
    std::nth_element(queue.begin(), head, queue.end(), by_bound);
    std::sort(queue.begin(), head, by_bound);
    std::for_each(queue.begin(), head, score);
    auto reaches = [&](const Ranked& ranked) {
      return !BoundBelow(ranked.value, kept.front().value);
    };
    const auto tail = std::partition(head, queue.end(), reaches);
    std::sort(head, tail, by_bound);
    for (auto next = head; next != tail && reaches(*next); ++next) {
      score(*next);
    }
    std::sort(kept.begin(), kept.end(), better);
    beam.clear();
    for (const Ranked& ranked : kept) {
      beam.insert(beam.end(), tuple(ranked.index),
                  tuple(ranked.index) + arity);
    }
  };

  // The kept partials by the hash of their key sets: the XOR of one
  // random key per member, so a partial's extension and that extension
  // less one member hash in O(1) each. `slots` is an open-addressing
  // table of partial index + 1 (0 = empty).
  std::vector<uint64_t> member_keys(num_eligible);
  Rng rng;
  for (uint64_t& key : member_keys) key = rng.Next();
  std::vector<uint64_t> partial_hash;
  std::vector<uint32_t> slots;
  size_t slot_mask = 0;
  auto index_partials = [&](uint32_t partial_arity, uint32_t num_partials) {
    partial_hash.assign(num_partials, 0);
    slots.assign(std::bit_ceil(size_t{2} * num_partials), 0);
    slot_mask = slots.size() - 1;
    for (uint32_t p = 0; p < num_partials; ++p) {
      for (uint32_t i = 0; i < partial_arity; ++i) {
        partial_hash[p] ^= member_keys[beam[size_t{p} * partial_arity + i]];
      }
      size_t slot = partial_hash[p] & slot_mask;
      while (slots[slot] != 0) slot = (slot + 1) & slot_mask;
      slots[slot] = p + 1;
    }
  };
  // Whether a kept partial before `p` is contained in partial p + {t}.
  auto reached_earlier = [&](uint32_t p, const uint32_t* partial,
                             const uint32_t* partial_end, uint32_t t) {
    const size_t partial_arity = static_cast<size_t>(partial_end - partial);
    const uint64_t extended = partial_hash[p] ^ member_keys[t];
    for (const uint32_t* dropped = partial; dropped != partial_end;
         ++dropped) {
      const uint64_t hash = extended ^ member_keys[*dropped];
      for (size_t slot = hash & slot_mask; slots[slot] != 0;
           slot = (slot + 1) & slot_mask) {
        const uint32_t q = slots[slot] - 1;
        if (q >= p || partial_hash[q] != hash) continue;
        // Equal hashes; q is the set when each member is t or a member of
        // the partial other than the dropped one.
        const uint32_t* other = &beam[q * partial_arity];
        if (std::all_of(other, other + partial_arity, [&](uint32_t m) {
              return m == t || (m != *dropped &&
                                std::binary_search(partial, partial_end, m));
            })) {
          return true;
        }
      }
    }
    return false;
  };

  // Level 1: all singletons. Level 1 is kept untrimmed: under sparse
  // constraints (e.g. diverse with large d) the feasible sets often avoid
  // the highest-scoring types, and trimming singletons would lose
  // feasibility entirely. So unless k = 1 it is not scored, and level 2 is
  // every compatible pair in lexicographic order. The beam narrows from
  // level 2 on.
  if (k > 1) {
    local_stats.subsets_enumerated += num_eligible;
    level.clear();
    for (uint32_t i = 0; i < num_eligible; ++i) {
      for (uint32_t j = i + 1; j < num_eligible; ++j) {
        if (!pairs.Compatible(i, j)) continue;
        level.push_back(i);
        level.push_back(j);
      }
    }
    arity = 2;
  }

  for (;;) {
    if (level.empty()) {
      if (stats != nullptr) *stats = local_stats;
      return Status::NotFound(
          "beam search found no k-subset satisfying the constraint");
    }
    local_stats.subsets_enumerated += level.size() / arity;
    // The last level needs only its best tuple.
    keep(arity == k ? 1 : options.beam_width);
    if (arity == k) break;
    ++arity;

    // Extend every kept partial with every type compatible with all of its
    // members (the AND of their rows), writing each extension as a sorted
    // tuple. An extension S = P ∪ {t} is written once, by the first kept
    // partial it contains: for each member u of P, S \ {u} is looked up
    // among the partials before P by the hash of its key set.
    level.clear();
    const uint32_t partial_arity = arity - 1;
    const uint32_t num_partials =
        static_cast<uint32_t>(beam.size() / partial_arity);
    index_partials(partial_arity, num_partials);
    for (uint32_t p = 0; p < num_partials; ++p) {
      const uint32_t* partial = &beam[size_t{p} * partial_arity];
      const uint32_t* partial_end = partial + partial_arity;
      std::copy_n(pairs.Row(partial[0]), pairs.words(), extensions.begin());
      for (const uint32_t* member = partial + 1; member != partial_end;
           ++member) {
        const uint64_t* row = pairs.Row(*member);
        for (size_t w = 0; w < pairs.words(); ++w) extensions[w] &= row[w];
      }
      for (size_t w = 0; w < pairs.words(); ++w) {
        for (uint64_t bits = extensions[w]; bits != 0; bits &= bits - 1) {
          const uint32_t t =
              static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
          if (reached_earlier(p, partial, partial_end, t)) continue;
          const uint32_t* split = std::lower_bound(partial, partial_end, t);
          level.insert(level.end(), partial, split);
          level.push_back(t);
          level.insert(level.end(), split, partial_end);
        }
      }
    }
  }

  if (stats != nullptr) *stats = local_stats;
  to_keys(beam.data(), k);
  return ComposePreview(prepared, keys, size.n);
}

}  // namespace

Result<Preview> BeamSearchDiscover(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   const BeamSearchOptions& options,
                                   DiscoveryStats* stats) {
  BeamSearchOptions attempt = options;
  DiscoveryStats accumulated;
  for (;;) {
    DiscoveryStats local;
    auto preview = BeamSearchAttempt(prepared, size, distance, attempt,
                                     &local);
    accumulated.subsets_enumerated += local.subsets_enumerated;
    accumulated.subsets_scored += local.subsets_scored;
    const bool dead_end =
        !preview.ok() && preview.status().code() == StatusCode::kNotFound &&
        local.subsets_enumerated > 0;
    if (!dead_end || attempt.beam_width >= options.max_beam_width) {
      if (stats != nullptr) *stats = accumulated;
      return preview;
    }
    // Widen and retry: rare feasible sets under sparse constraints tend
    // to avoid the highest-scoring types the narrow beam keeps.
    attempt.beam_width = std::min(options.max_beam_width,
                                  attempt.beam_width * 4);
  }
}

}  // namespace egp
