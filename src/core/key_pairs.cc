#include "core/key_pairs.h"

#include <algorithm>
#include <utility>

#include "core/candidates.h"

namespace egp {

PairRows::PairRows(std::vector<TypeId> eligible,
                   const SchemaDistanceMatrix& distances, size_t max_words)
    : eligible_(std::move(eligible)), words_((eligible_.size() + 63) / 64) {
  const size_t n = eligible_.size();
  // slot[d] = the index of distance d among the distinct ones.
  constexpr uint32_t kAbsent = UINT32_MAX;
  std::vector<uint32_t> slot(size_t{distances.Diameter()} + 1, kAbsent);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const uint32_t d = distances.Distance(eligible_[i], eligible_[j]);
      if (d != SchemaDistanceMatrix::kUnreachable) slot[d] = 0;
    }
  }
  for (uint32_t d = 0; d < slot.size(); ++d) {
    if (slot[d] == kAbsent) continue;
    slot[d] = static_cast<uint32_t>(distances_.size());
    distances_.push_back(d);
  }
  const size_t block = n * words_;
  if (distances_.size() * block > max_words) {
    distances_.clear();
    return;
  }
  cached_ = true;
  // Set each pair in the block of its own distance, then OR every block
  // into the next: within(d) holds all pairs at most d apart.
  within_.assign(distances_.size() * block, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const uint32_t d = distances.Distance(eligible_[i], eligible_[j]);
      if (d == SchemaDistanceMatrix::kUnreachable) continue;
      uint64_t* rows = &within_[slot[d] * block];
      rows[i * words_ + j / 64] |= uint64_t{1} << (j % 64);
      rows[j * words_ + i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  for (size_t w = block; w < within_.size(); ++w) within_[w] |= within_[w - block];
}

const uint64_t* PairRows::Within(uint32_t d) const {
  const auto above = std::upper_bound(distances_.begin(), distances_.end(), d);
  if (above == distances_.begin()) return nullptr;
  const size_t index = static_cast<size_t>(above - distances_.begin()) - 1;
  return &within_[index * eligible_.size() * words_];
}

KeyPairs::KeyPairs(const PreparedSchema& prepared,
                   const DistanceConstraint& distance) {
  const PairRows& cache = prepared.pair_rows();
  eligible_ = &cache.eligible();
  words_ = cache.words();
  const uint32_t n = size();
  if (!cache.cached()) {
    owned_.assign(size_t{n} * words_, 0);
    const SchemaDistanceMatrix& dist = prepared.distances();
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (!distance.SatisfiedBy(
                dist.Distance(eligible()[i], eligible()[j]))) {
          continue;
        }
        owned_[size_t{i} * words_ + j / 64] |= uint64_t{1} << (j % 64);
        owned_[size_t{j} * words_ + i / 64] |= uint64_t{1} << (i % 64);
      }
    }
    rows_ = owned_.data();
    return;
  }

  // The admitted pairs are within(d) for tight and the complement of
  // within(d − 1) for diverse and none; a null `within` holds no pair.
  const uint64_t* within = nullptr;
  switch (distance.mode) {
    case DistanceMode::kNone:
      break;
    case DistanceMode::kTight:
      within = cache.Within(distance.d);
      if (within != nullptr) {
        rows_ = within;
        return;
      }
      owned_.assign(size_t{n} * words_, 0);
      rows_ = owned_.data();
      return;
    case DistanceMode::kDiverse:
      if (distance.d > 0) within = cache.Within(distance.d - 1);
      break;
  }
  const uint64_t last_word =
      n % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (n % 64)) - 1;
  owned_.resize(size_t{n} * words_);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t* row = &owned_[size_t{i} * words_];
    for (size_t w = 0; w < words_; ++w) {
      row[w] = within == nullptr ? ~uint64_t{0}
                                 : ~within[size_t{i} * words_ + w];
    }
    row[words_ - 1] &= last_word;
    row[i / 64] &= ~(uint64_t{1} << (i % 64));
  }
  rows_ = owned_.data();
}

}  // namespace egp
