#include "core/discover.h"

#include <algorithm>

#include "common/strings.h"
#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"

namespace egp {
namespace {

/// C(n, k), or cap + 1 once it exceeds `cap`.
uint64_t BinomialCapped(uint64_t n, uint64_t k, uint64_t cap) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t c = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    // Exact at every step: c becomes C(n - k + i, i). c <= cap before the
    // multiply and n < 2^32 (TypeIds are 32-bit), so the product fits.
    c = c * (n - k + i) / i;
    if (c > cap) return cap + 1;
  }
  return c;
}

}  // namespace

Result<std::string> CanonicalAlgorithmName(const std::string& name) {
  if (name == "auto" || name == "bf" || name == "dp" || name == "apriori" ||
      name == "beam") {
    return name;
  }
  if (name == "bruteforce") return std::string("bf");
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (available: auto, bf, dp, apriori, beam)");
}

Result<Preview> Discover(const PreparedSchema& prepared,
                         const std::string& algorithm,
                         const SizeConstraint& size,
                         const DistanceConstraint& distance,
                         DiscoveryStats* stats, std::string* resolved) {
  std::string name;
  EGP_ASSIGN_OR_RETURN(name, CanonicalAlgorithmName(algorithm));
  if (name == "auto") {
    name = distance.mode == DistanceMode::kNone ? "dp" : "apriori";
  }
  if (resolved != nullptr) *resolved = name;
  if (name == "bf") {
    const uint64_t eligible = prepared.pair_rows().eligible().size();
    if (BinomialCapped(eligible, size.k, kMaxBruteForceSubsets) >
        kMaxBruteForceSubsets) {
      return Status::OutOfRange(StrFormat(
          "brute force over k=%u of %llu key types exceeds %llu subsets; "
          "use apriori or beam",
          size.k, static_cast<unsigned long long>(eligible),
          static_cast<unsigned long long>(kMaxBruteForceSubsets)));
    }
    return BruteForceDiscover(prepared, size, distance, BruteForceOptions{},
                              stats);
  }
  if (name == "dp") {
    if (distance.mode != DistanceMode::kNone) {
      return Status::InvalidArgument(
          "the dynamic-programming algorithm only solves the concise "
          "space; distance constraints lack its optimal substructure");
    }
    return DynamicProgrammingDiscover(prepared, size);
  }
  if (name == "apriori") {
    AprioriOptions options;
    options.max_level_size = kMaxAprioriLevelSize;
    return AprioriDiscover(prepared, size, distance, options, stats);
  }
  return BeamSearchDiscover(prepared, size, distance, BeamSearchOptions{},
                            stats);
}

}  // namespace egp
