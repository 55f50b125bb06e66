// Discover: the library's one algorithm dispatch for optimal previews.
//
// Selects a discovery algorithm by name, like the scoring measures: DP for
// concise previews (§5.1), Apriori when a distance constraint removes DP's
// optimal substructure (§5.2), brute force (the oracle) and beam search
// (the approximate ablation) on demand. The Engine, the report generator,
// the CLI and the benches all go through it.
#ifndef EGP_CORE_DISCOVER_H_
#define EGP_CORE_DISCOVER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

/// Work caps of one Discover call; no request can lift them. Brute force
/// is refused with OutOfRange before it starts when the number of
/// k-subsets of eligible key types exceeds kMaxBruteForceSubsets, and
/// Apriori stops with OutOfRange once its bounded search would generate
/// more than kMaxAprioriLevelSize key sets, prefixes and k-subsets
/// alike. DP's table is bounded by clamping n to the candidate count.
inline constexpr uint64_t kMaxBruteForceSubsets = 4'000'000;
inline constexpr uint64_t kMaxAprioriLevelSize = 1'000'000;

/// Canonical spelling of an algorithm name: "auto", "bf" (brute force;
/// "bruteforce" is accepted), "dp" (dynamic programming), "apriori",
/// "beam". Unknown names fail with InvalidArgument listing the
/// available ones.
Result<std::string> CanonicalAlgorithmName(const std::string& name);

/// Finds a preview in the requested space with the named algorithm (any
/// name CanonicalAlgorithmName accepts). "auto" picks DP for concise and
/// Apriori for tight/diverse requests. DP cannot honour distance
/// constraints (§5.2) and returns InvalidArgument if asked to. When
/// `resolved` is given it receives the canonical name of the algorithm
/// that ran ("dp", "apriori", ...), on success and failure alike.
Result<Preview> Discover(const PreparedSchema& prepared,
                         const std::string& algorithm,
                         const SizeConstraint& size,
                         const DistanceConstraint& distance,
                         DiscoveryStats* stats = nullptr,
                         std::string* resolved = nullptr);

}  // namespace egp

#endif  // EGP_CORE_DISCOVER_H_
