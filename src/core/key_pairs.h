// KeyPairs: the eligible key types of a PreparedSchema and the pairs of
// them a distance constraint admits, built once per discovery request.
//
// Brute force, the Apriori join and the beam extension all ask "may these
// two key types share a preview?" (§5.2) for many pairs. One bit matrix
// over the eligible types answers each question with a single load, and
// a row answers it for every partner at once (the beam ANDs the rows of a
// partial's members to find its extensions).
#ifndef EGP_CORE_KEY_PAIRS_H_
#define EGP_CORE_KEY_PAIRS_H_

#include <cstdint>
#include <vector>

#include "core/candidates.h"
#include "core/constraints.h"

namespace egp {

class KeyPairs {
 public:
  KeyPairs(const PreparedSchema& prepared, const DistanceConstraint& distance);

  /// Types that can key a table (Def. 1: at least one candidate non-key
  /// attribute), ascending. Positions in this list index everything else.
  const std::vector<TypeId>& eligible() const { return eligible_; }
  uint32_t size() const { return static_cast<uint32_t>(eligible_.size()); }

  /// Whether eligible types at positions i != j satisfy the constraint.
  bool Compatible(uint32_t i, uint32_t j) const {
    return (Row(i)[j / 64] >> (j % 64)) & 1;
  }

  /// Row i of the matrix: bit j of word j / 64 is Compatible(i, j). The
  /// diagonal bit is clear.
  const uint64_t* Row(uint32_t i) const { return &bits_[size_t{i} * words_]; }
  /// Words per row.
  size_t words() const { return words_; }

 private:
  std::vector<TypeId> eligible_;
  size_t words_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace egp

#endif  // EGP_CORE_KEY_PAIRS_H_
