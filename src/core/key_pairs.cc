#include "core/key_pairs.h"

namespace egp {

KeyPairs::KeyPairs(const PreparedSchema& prepared,
                   const DistanceConstraint& distance) {
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    if (prepared.Eligible(t)) eligible_.push_back(t);
  }
  const uint32_t n = size();
  words_ = (n + 63) / 64;
  bits_.assign(size_t{n} * words_, 0);
  const SchemaDistanceMatrix& dist = prepared.distances();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (!distance.SatisfiedBy(dist.Distance(eligible_[i], eligible_[j]))) {
        continue;
      }
      bits_[size_t{i} * words_ + j / 64] |= uint64_t{1} << (j % 64);
      bits_[size_t{j} * words_ + i / 64] |= uint64_t{1} << (i % 64);
    }
  }
}

}  // namespace egp
