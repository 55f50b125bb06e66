// PairRows and KeyPairs: the eligible key types of a schema and the pairs
// of them a distance constraint admits.
//
// Brute force, Apriori and the beam extension all ask "may these two key
// types share a preview?" (§5.2) for many pairs. One bit matrix over the
// eligible types answers each question with a single load, and a row
// answers it for every partner at once (Apriori and the beam AND the rows
// of a key set's members to find its extensions).
//
// Every tight or diverse matrix is a function of the "within distance d"
// matrices, one per distance that two eligible types are apart, so
// PreparedSchema builds those once (PairRows) and each request derives
// its KeyPairs from them without a distance lookup:
//   - tight(d) is within(d), taken at the largest such distance ≤ d;
//   - diverse(d) is the complement of within(d − 1);
//   - none is every pair.
// Unreachable pairs are within no distance, so they fail every tight
// constraint and satisfy every diverse one, as DistanceConstraint says.
#ifndef EGP_CORE_KEY_PAIRS_H_
#define EGP_CORE_KEY_PAIRS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/constraints.h"
#include "graph/schema_distance.h"

namespace egp {

class PreparedSchema;

/// PairRows keep at most this many words (8 MiB); past it they keep only
/// the eligible types and KeyPairs falls back to distance lookups.
inline constexpr size_t kMaxPairRowWords = size_t{1} << 20;

/// The eligible key types of a schema and, for each distinct finite
/// distance d between two of them, the bit rows "within distance d": bit
/// j of row i is set when 0 < dist(i, j) ≤ d. Only the distances some
/// pair is apart are kept (no constraint can tell the others from their
/// neighbours), so the rows take O(D · T · ⌈T/64⌉) words for D distinct
/// distances over T eligible types, and at most `max_words` of them.
class PairRows {
 public:
  PairRows() = default;
  PairRows(std::vector<TypeId> eligible, const SchemaDistanceMatrix& distances,
           size_t max_words = kMaxPairRowWords);

  /// Eligible types, ascending. Positions in this list index the rows.
  const std::vector<TypeId>& eligible() const { return eligible_; }
  /// Words per row, ⌈eligible().size() / 64⌉.
  size_t words() const { return words_; }
  /// Whether the rows were kept (false past max_words).
  bool cached() const { return cached_; }
  /// The rows within the largest kept distance ≤ d, or nullptr when no
  /// two eligible types are that close. Requires cached().
  const uint64_t* Within(uint32_t d) const;

  size_t ApproximateBytes() const {
    return eligible_.capacity() * sizeof(TypeId) +
           distances_.capacity() * sizeof(uint32_t) +
           within_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<TypeId> eligible_;
  size_t words_ = 0;
  bool cached_ = false;
  std::vector<uint32_t> distances_;  // distinct finite distances, ascending
  std::vector<uint64_t> within_;     // one T × words_ block per distance
};

class KeyPairs {
 public:
  KeyPairs(const PreparedSchema& prepared, const DistanceConstraint& distance);
  KeyPairs(const KeyPairs&) = delete;
  KeyPairs& operator=(const KeyPairs&) = delete;

  /// Types that can key a table (Def. 1: at least one candidate non-key
  /// attribute), ascending. Positions in this list index everything else.
  const std::vector<TypeId>& eligible() const { return *eligible_; }
  uint32_t size() const { return static_cast<uint32_t>(eligible_->size()); }

  /// Whether eligible types at positions i != j satisfy the constraint.
  bool Compatible(uint32_t i, uint32_t j) const {
    return (Row(i)[j / 64] >> (j % 64)) & 1;
  }

  /// Row i of the matrix: bit j of word j / 64 is Compatible(i, j). The
  /// diagonal bit and the bits past size() are clear.
  const uint64_t* Row(uint32_t i) const { return &rows_[size_t{i} * words_]; }
  /// Words per row.
  size_t words() const { return words_; }

 private:
  const std::vector<TypeId>* eligible_;
  size_t words_;
  const uint64_t* rows_;        // into the PairRows, or into owned_
  std::vector<uint64_t> owned_;
};

}  // namespace egp

#endif  // EGP_CORE_KEY_PAIRS_H_
