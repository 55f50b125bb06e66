#include "core/discover.h"

#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"

namespace egp {

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
    return AprioriDiscover(prepared, size, distance, AprioriOptions{}, stats);
  }
  return BeamSearchDiscover(prepared, size, distance, BeamSearchOptions{},
                            stats);
}

}  // namespace egp
