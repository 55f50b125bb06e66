#include "core/beam_search.h"

#include <algorithm>
#include <bit>
#include <numeric>

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
  // candidates being built, `order` the distinct ones, `beam` the kept
  // ones, best first. The buffers are reused across levels.
  uint32_t arity = 1;
  std::vector<uint32_t> level(num_eligible);
  std::iota(level.begin(), level.end(), 0u);
  std::vector<uint32_t> order;
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
    if (a.value != b.value) return a.value < b.value;
    return a.index > b.index;
  };
  // Keeps the best `width` tuples of `order` under `better`, in order, as
  // the beam. Tuples are scored best bound first; once the next bound is
  // below the width-th best score, no unscored tuple can enter.
  auto keep = [&](size_t width) {
    const uint32_t r = size.n - arity;
    for (uint32_t i = 0; i < num_eligible; ++i) {
      terms[i] = ComposeBound::OfType(prepared, pairs.eligible()[i], r);
    }
    queue.clear();
    for (uint32_t index : order) {
      ComposeBound bound;
      for (uint32_t i = 0; i < arity; ++i) {
        bound = bound.Join(terms[tuple(index)[i]]);
      }
      queue.push_back(Ranked{bound.Value(), index});
    }
    std::make_heap(queue.begin(), queue.end(), by_bound);
    kept.clear();  // a heap whose front is the worst kept tuple
    while (!queue.empty() &&
           !(kept.size() == width &&
             BoundBelow(queue.front().value, kept.front().value))) {
      std::pop_heap(queue.begin(), queue.end(), by_bound);
      const uint32_t index = queue.back().index;
      queue.pop_back();
      to_keys(tuple(index), arity);
      ++local_stats.subsets_scored;
      const Ranked scored{ComposePreviewScore(prepared, keys, size.n), index};
      if (kept.size() < width) {
        kept.push_back(scored);
        std::push_heap(kept.begin(), kept.end(), better);
      } else if (better(scored, kept.front())) {
        std::pop_heap(kept.begin(), kept.end(), better);
        kept.back() = scored;
        std::push_heap(kept.begin(), kept.end(), better);
      }
    }
    std::sort(kept.begin(), kept.end(), better);
    beam.clear();
    for (const Ranked& ranked : kept) {
      beam.insert(beam.end(), tuple(ranked.index),
                  tuple(ranked.index) + arity);
    }
  };

  // Level 1: all singletons. Level 1 is kept untrimmed: under sparse
  // constraints (e.g. diverse with large d) the feasible sets often avoid
  // the highest-scoring types, and trimming singletons would lose
  // feasibility entirely. So unless k = 1 it is not scored, and level 2 is
  // every compatible pair in lexicographic order. The beam narrows from
  // level 2 on.
  order = level;
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
    order.resize(level.size() / arity);
    std::iota(order.begin(), order.end(), 0u);
  }

  for (;;) {
    if (order.empty()) {
      if (stats != nullptr) *stats = local_stats;
      return Status::NotFound(
          "beam search found no k-subset satisfying the constraint");
    }
    local_stats.subsets_enumerated += order.size();
    // The last level needs only its best tuple.
    keep(arity == k ? 1 : options.beam_width);
    if (arity == k) break;
    ++arity;

    // Extend every kept partial with every type compatible with all of its
    // members (the AND of their rows), writing each extension as a sorted
    // tuple.
    level.clear();
    const uint32_t partial_arity = arity - 1;
    for (size_t offset = 0; offset < beam.size(); offset += partial_arity) {
      const uint32_t* partial = &beam[offset];
      const uint32_t* partial_end = partial + partial_arity;
      std::copy_n(pairs.Row(partial[0]), pairs.words(), extensions.begin());
      for (const uint32_t* member = partial + 1; member != partial_end;
           ++member) {
        const uint64_t* row = pairs.Row(*member);
        for (size_t w = 0; w < pairs.words(); ++w) extensions[w] &= row[w];
      }
      for (const uint32_t* member = partial; member != partial_end; ++member) {
        extensions[*member / 64] &= ~(uint64_t{1} << (*member % 64));
      }
      for (size_t w = 0; w < pairs.words(); ++w) {
        for (uint64_t bits = extensions[w]; bits != 0; bits &= bits - 1) {
          const uint32_t t =
              static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
          const uint32_t* split = std::lower_bound(partial, partial_end, t);
          level.insert(level.end(), partial, split);
          level.push_back(t);
          level.insert(level.end(), split, partial_end);
        }
      }
    }

    // Extensions reached from different partials are one key set: sort the
    // tuples and drop repeats.
    order.resize(level.size() / arity);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(tuple(a), tuple(a) + arity,
                                          tuple(b), tuple(b) + arity);
    });
    order.erase(std::unique(order.begin(), order.end(),
                            [&](uint32_t a, uint32_t b) {
                              return std::equal(tuple(a), tuple(a) + arity,
                                                tuple(b));
                            }),
                order.end());
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
