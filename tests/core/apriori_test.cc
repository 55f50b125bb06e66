// Apriori's best-first branch-and-bound against two exhaustive oracles:
// the full-scoring Apriori it replaced (kept here as a reference) and
// brute force. Both scan the distance-feasible k-subsets in lexicographic
// order and keep the first strictly better one, so keys, score bits and
// status must all match, ties included.
#include "core/apriori.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/brute_force.h"
#include "core/compose.h"
#include "datagen/generator.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

// Apriori as it was before branch-and-bound: build every level up to L_k
// by the prefix join, then score every k-subset of L_k.
Result<Preview> ReferenceApriori(const PreparedSchema& prepared,
                                 const SizeConstraint& size,
                                 const DistanceConstraint& distance,
                                 DiscoveryStats* stats) {
  const uint32_t k = size.k;
  if (k == 0 || size.n < k) return Status::InvalidArgument("bad size");
  std::vector<TypeId> eligible;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    if (prepared.Eligible(t)) eligible.push_back(t);
  }
  if (eligible.size() < k) return Status::NotFound("too few eligible");
  const SchemaDistanceMatrix& dist = prepared.distances();
  auto compatible = [&](TypeId a, TypeId b) {
    return distance.SatisfiedBy(dist.Distance(a, b));
  };
  std::vector<std::vector<TypeId>> level;
  for (TypeId t : eligible) level.push_back({t});
  for (uint32_t arity = 2; arity <= k; ++arity) {
    std::vector<std::vector<TypeId>> next;
    for (size_t a = 0; a < level.size(); ++a) {
      for (size_t b = a + 1; b < level.size(); ++b) {
        if (!std::equal(level[a].begin(), level[a].end() - 1,
                        level[b].begin())) {
          break;
        }
        if (!compatible(level[a].back(), level[b].back())) continue;
        std::vector<TypeId> joined = level[a];
        joined.push_back(level[b].back());
        next.push_back(std::move(joined));
      }
    }
    level = std::move(next);
  }
  DiscoveryStats local;
  double best_score = -1.0;
  const std::vector<TypeId>* best = nullptr;
  for (const std::vector<TypeId>& keys : level) {
    ++local.subsets_enumerated;
    ++local.subsets_scored;
    const double score = ComposePreviewScore(prepared, keys, size.n);
    if (score > best_score) {
      best_score = score;
      best = &keys;
    }
  }
  *stats = local;
  if (best == nullptr) return Status::NotFound("no feasible k-subset");
  return ComposePreview(prepared, *best, size.n);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSame(const Result<Preview>& actual, const Result<Preview>& expected,
                const PreparedSchema& prepared) {
  ASSERT_EQ(actual.ok(), expected.ok());
  if (!actual.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code());
    return;
  }
  EXPECT_EQ(actual->Keys(), expected->Keys());
  EXPECT_EQ(Bits(actual->Score(prepared)), Bits(expected->Score(prepared)));
  EXPECT_EQ(actual->TotalNonKeys(), expected->TotalNonKeys());
}

struct Totals {
  uint64_t reference_scored = 0;
  uint64_t scored = 0;
  size_t found = 0;
};

// Runs Apriori, the reference and brute force on every constraint of the
// grid: {tight, diverse} × d 1–3 × k 1–6 × n ∈ {k, k+3, N+2} with N the
// schema's total candidate count.
void ExpectMatchesOracles(const PreparedSchema& prepared, Totals* totals) {
  const uint32_t total = static_cast<uint32_t>(prepared.TotalCandidates());
  for (const bool tight : {true, false}) {
    for (uint32_t d = 1; d <= 3; ++d) {
      const DistanceConstraint distance = tight
                                              ? DistanceConstraint::Tight(d)
                                              : DistanceConstraint::Diverse(d);
      for (uint32_t k = 1; k <= 6; ++k) {
        for (const uint32_t n : {k, k + 3, total + 2}) {
          SCOPED_TRACE(::testing::Message() << (tight ? "tight" : "diverse")
                                            << " d=" << d << " k=" << k
                                            << " n=" << n);
          const SizeConstraint size{k, n};
          DiscoveryStats stats;
          DiscoveryStats reference_stats;
          const auto actual =
              AprioriDiscover(prepared, size, distance, {}, &stats);
          const auto reference =
              ReferenceApriori(prepared, size, distance, &reference_stats);
          const auto brute = BruteForceDiscover(prepared, size, distance);
          ExpectSame(actual, reference, prepared);
          ExpectSame(actual, brute, prepared);
          // Leaves are a subset of L_k, and only some of them are scored.
          EXPECT_LE(stats.subsets_enumerated,
                    reference_stats.subsets_enumerated);
          EXPECT_LE(stats.subsets_scored, stats.subsets_enumerated);
          totals->reference_scored += reference_stats.subsets_scored;
          totals->scored += stats.subsets_scored;
          totals->found += actual.ok() ? 1 : 0;
        }
      }
    }
  }
}

TEST(AprioriOracleTest, BranchAndBoundMatchesFullScoring) {
  Totals totals;
  for (uint64_t seed = 300; seed < 316; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const SchemaGraph schema =
        testing_util::RandomSchemaGraph(seed, 8 + seed % 7, 12 + seed % 13);
    MeasureSelection measures;  // coverage ties often; random walk rarely
    if (seed % 2 == 1) measures.key = "randomwalk";
    auto prepared = PreparedSchema::Create(schema, measures);
    ASSERT_TRUE(prepared.ok());
    ExpectMatchesOracles(*prepared, &totals);
  }
  EXPECT_GT(totals.found, 500u);
  // The bound must actually prune.
  EXPECT_LT(totals.scored * 2, totals.reference_scored);
}

TEST(AprioriOracleTest, EqualScoresKeepTheLexicographicallySmallestKeys) {
  // Every k-subset of a uniform schema scores the same, so nothing can be
  // pruned and the tie-break alone decides.
  Totals totals;
  for (const uint32_t chord : {2u, 3u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "chord=" << chord);
    auto prepared = PreparedSchema::Create(
        testing_util::UniformSchemaGraph(11, chord), MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    ExpectMatchesOracles(*prepared, &totals);
  }
  EXPECT_GT(totals.found, 50u);
  EXPECT_EQ(totals.scored, totals.reference_scored);
}

TEST(AprioriOracleTest, FilmK5MatchesFullScoring) {
  // The film schema (63 types) at k = 5: the levels the full-scoring
  // reference builds hold hundreds of thousands of subsets, while the
  // prefix search scores only the few whose bound reaches the optimum.
  GeneratorOptions options;
  options.scale = 0.002;
  auto film = GenerateDomainByName("film", options);
  ASSERT_TRUE(film.ok()) << film.status().ToString();
  auto prepared =
      PreparedSchema::Create(film->schema, MeasureSelection{}, &film->graph);
  ASSERT_TRUE(prepared.ok());
  for (const DistanceConstraint distance :
       {DistanceConstraint::Tight(3), DistanceConstraint::Diverse(2)}) {
    SCOPED_TRACE(::testing::Message()
                 << (distance.mode == DistanceMode::kTight ? "tight" : "diverse")
                 << " d=" << distance.d);
    const SizeConstraint size{5, 12};
    DiscoveryStats stats;
    DiscoveryStats reference_stats;
    const auto actual = AprioriDiscover(*prepared, size, distance, {}, &stats);
    const auto reference =
        ReferenceApriori(*prepared, size, distance, &reference_stats);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSame(actual, reference, *prepared);
    EXPECT_LE(stats.subsets_enumerated, reference_stats.subsets_enumerated);
    EXPECT_LT(stats.subsets_scored * 10, reference_stats.subsets_scored);
  }
}

TEST(AprioriOracleTest, GeneratedNodesCountAgainstTheCap) {
  // Uniform scores prune nothing, so a diverse-1 request over 11 types
  // generates all C(11, 3) = 165 k-subsets as leaves plus the prefixes
  // that still have enough types after them: the 9 singletons {0} … {8}
  // and the 45 pairs {a, b} with b ≤ 9. All 219 count against the cap.
  auto prepared = PreparedSchema::Create(
      testing_util::UniformSchemaGraph(11, 2), MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  AprioriOptions options;
  for (const uint64_t cap : {100u, 218u}) {
    options.max_level_size = cap;
    const auto capped =
        AprioriDiscover(*prepared, SizeConstraint{3, 6},
                        DistanceConstraint::Diverse(1), options);
    EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange) << cap;
  }
  options.max_level_size = 219;
  DiscoveryStats stats;
  EXPECT_TRUE(AprioriDiscover(*prepared, SizeConstraint{3, 6},
                              DistanceConstraint::Diverse(1), options, &stats)
                  .ok());
  EXPECT_EQ(stats.subsets_enumerated, 165u);
}

}  // namespace
}  // namespace egp
