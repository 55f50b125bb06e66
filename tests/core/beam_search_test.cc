#include "core/beam_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "core/brute_force.h"
#include "core/compose.h"
#include "datagen/paper_example.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

PreparedSchema PreparePaper() {
  auto prepared =
      PreparedSchema::Create(SchemaGraph::FromEntityGraph(
                                 BuildPaperExampleGraph()),
                             MeasureSelection{});
  EXPECT_TRUE(prepared.ok());
  return std::move(prepared).value();
}

TEST(BeamSearchTest, FindsPaperConciseOptimum) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{2, 6},
                                          DistanceConstraint::None());
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(prepared), 84.0);
}

TEST(BeamSearchTest, FindsPaperDiverseOptimum) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{2, 6},
                                          DistanceConstraint::Diverse(2));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(prepared), 78.0);
}

TEST(BeamSearchTest, ResultAlwaysValid) {
  const PreparedSchema prepared = PreparePaper();
  for (uint32_t k = 1; k <= 4; ++k) {
    for (uint32_t n = k; n <= k + 4; ++n) {
      const SizeConstraint size{k, n};
      const auto preview =
          BeamSearchDiscover(prepared, size, DistanceConstraint::Tight(2));
      if (!preview.ok()) continue;
      EXPECT_TRUE(ValidatePreview(*preview, prepared, size,
                                  DistanceConstraint::Tight(2))
                      .ok())
          << "k=" << k << " n=" << n;
    }
  }
}

TEST(BeamSearchTest, InfeasibleConstraintIsNotFound) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{3, 6},
                                          DistanceConstraint::Diverse(9));
  EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
}

TEST(BeamSearchTest, InvalidArguments) {
  const PreparedSchema prepared = PreparePaper();
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{0, 5},
                                  DistanceConstraint::None())
                   .ok());
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{3, 2},
                                  DistanceConstraint::None())
                   .ok());
  BeamSearchOptions zero;
  zero.beam_width = 0;
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{2, 4},
                                  DistanceConstraint::None(), zero)
                   .ok());
}

struct BeamInstance {
  uint64_t seed;
  uint32_t k;
  uint32_t n;
};

class BeamQualityTest : public ::testing::TestWithParam<BeamInstance> {};

TEST_P(BeamQualityTest, NeverBeatsAndUsuallyMatchesOptimal) {
  const BeamInstance& p = GetParam();
  const SchemaGraph schema = testing_util::RandomSchemaGraph(p.seed, 12, 24);
  auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  const SizeConstraint size{p.k, p.n};
  for (const DistanceConstraint& constraint :
       {DistanceConstraint::None(), DistanceConstraint::Tight(2),
        DistanceConstraint::Diverse(2)}) {
    const auto exact = BruteForceDiscover(*prepared, size, constraint);
    const auto beam = BeamSearchDiscover(*prepared, size, constraint);
    if (!exact.ok()) {
      // Beam may also fail to find a feasible set; it must not "succeed"
      // with an invalid one.
      if (beam.ok()) {
        EXPECT_TRUE(ValidatePreview(*beam, *prepared, size, constraint).ok());
      }
      continue;
    }
    ASSERT_TRUE(beam.ok()) << "beam missed a feasible instance";
    const double optimal = exact->Score(*prepared);
    const double approx = beam->Score(*prepared);
    EXPECT_LE(approx, optimal + 1e-9);
    // With beam width 8 on 12-type schemas the approximation should stay
    // within 10% of optimal.
    EXPECT_GE(approx, optimal * 0.9)
        << "seed=" << p.seed << " k=" << p.k << " n=" << p.n;
    EXPECT_TRUE(ValidatePreview(*beam, *prepared, size, constraint).ok());
  }
}

std::vector<BeamInstance> BeamInstances() {
  std::vector<BeamInstance> instances;
  uint64_t seed = 9000;
  for (uint32_t k : {2u, 3u, 4u}) {
    for (uint32_t n : {4u, 8u}) {
      for (int repeat = 0; repeat < 4; ++repeat) {
        instances.push_back(BeamInstance{seed++, k, n});
      }
    }
  }
  return instances;
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, BeamQualityTest,
                         ::testing::ValuesIn(BeamInstances()));

// The beam search as it was before its levels became flat tuples: one
// std::vector per partial and a std::set of seen key sets per level, and
// every generated tuple scored. The reference the bounded flat-tuple
// search must match in keys, score bits and subsets_enumerated, scoring
// no more tuples than it.
struct ReferencePartial {
  std::vector<TypeId> keys;
  double score = 0.0;
};

bool ReferenceBetter(const ReferencePartial& a, const ReferencePartial& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.keys < b.keys;
}

Result<Preview> ReferenceAttempt(const PreparedSchema& prepared,
                                 const SizeConstraint& size,
                                 const DistanceConstraint& distance,
                                 uint32_t beam_width, DiscoveryStats* stats) {
  const uint32_t k = size.k;
  std::vector<TypeId> eligible;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    if (prepared.Eligible(t)) eligible.push_back(t);
  }
  if (eligible.size() < k) return Status::NotFound("too few eligible");
  DiscoveryStats local;
  const SchemaDistanceMatrix& dist = prepared.distances();
  std::vector<ReferencePartial> beam;
  for (TypeId t : eligible) {
    ReferencePartial partial;
    partial.keys = {t};
    partial.score = ComposePreviewScore(prepared, partial.keys, size.n);
    ++local.subsets_enumerated;
    ++local.subsets_scored;
    beam.push_back(std::move(partial));
  }
  std::sort(beam.begin(), beam.end(), ReferenceBetter);
  std::set<std::vector<TypeId>> seen;
  for (uint32_t level = 2; level <= k; ++level) {
    std::vector<ReferencePartial> next;
    seen.clear();
    for (const ReferencePartial& partial : beam) {
      for (TypeId t : eligible) {
        if (std::binary_search(partial.keys.begin(), partial.keys.end(), t)) {
          continue;
        }
        bool satisfies = true;
        for (TypeId existing : partial.keys) {
          if (!distance.SatisfiedBy(dist.Distance(existing, t))) {
            satisfies = false;
            break;
          }
        }
        if (!satisfies) continue;
        ReferencePartial extended;
        extended.keys = partial.keys;
        extended.keys.insert(
            std::lower_bound(extended.keys.begin(), extended.keys.end(), t),
            t);
        if (!seen.insert(extended.keys).second) continue;
        extended.score = ComposePreviewScore(prepared, extended.keys, size.n);
        ++local.subsets_enumerated;
        ++local.subsets_scored;
        next.push_back(std::move(extended));
      }
    }
    if (next.empty()) {
      *stats = local;
      return Status::NotFound("dead end");
    }
    std::sort(next.begin(), next.end(), ReferenceBetter);
    if (next.size() > beam_width) next.resize(beam_width);
    beam = std::move(next);
  }
  *stats = local;
  return ComposePreview(prepared, beam.front().keys, size.n);
}

Result<Preview> ReferenceBeam(const PreparedSchema& prepared,
                              const SizeConstraint& size,
                              const DistanceConstraint& distance,
                              const BeamSearchOptions& options,
                              DiscoveryStats* stats) {
  uint32_t width = options.beam_width;
  DiscoveryStats accumulated;
  for (;;) {
    DiscoveryStats local;
    auto preview = ReferenceAttempt(prepared, size, distance, width, &local);
    accumulated.subsets_enumerated += local.subsets_enumerated;
    accumulated.subsets_scored += local.subsets_scored;
    const bool dead_end =
        !preview.ok() && preview.status().code() == StatusCode::kNotFound &&
        local.subsets_enumerated > 0;
    if (!dead_end || width >= options.max_beam_width) {
      *stats = accumulated;
      return preview;
    }
    width = std::min(options.max_beam_width, width * 4);
  }
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Runs both searches and asserts identical outcomes; returns whether the
// search succeeded.
bool ExpectMatchesReference(const PreparedSchema& prepared,
                            const SizeConstraint& size,
                            const DistanceConstraint& distance,
                            const BeamSearchOptions& options) {
  DiscoveryStats expected_stats;
  DiscoveryStats stats;
  const auto expected =
      ReferenceBeam(prepared, size, distance, options, &expected_stats);
  const auto actual =
      BeamSearchDiscover(prepared, size, distance, options, &stats);
  EXPECT_EQ(actual.ok(), expected.ok());
  EXPECT_EQ(stats.subsets_enumerated, expected_stats.subsets_enumerated);
  EXPECT_LE(stats.subsets_scored, expected_stats.subsets_scored);
  if (!actual.ok() || !expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code());
    return false;
  }
  EXPECT_EQ(actual->Keys(), expected->Keys());
  EXPECT_EQ(Bits(actual->Score(prepared)), Bits(expected->Score(prepared)));
  EXPECT_EQ(actual->TotalNonKeys(), expected->TotalNonKeys());
  return true;
}

TEST(BeamOracleTest, FlatTuplesMatchTheSetBeam) {
  size_t found = 0;
  for (uint64_t seed = 700; seed < 712; ++seed) {
    const SchemaGraph schema =
        testing_util::RandomSchemaGraph(seed, 10 + seed % 8, 20 + seed % 10);
    MeasureSelection measures;  // coverage ties often; random walk rarely
    if (seed % 2 == 1) measures.key = "randomwalk";
    auto prepared = PreparedSchema::Create(schema, measures);
    ASSERT_TRUE(prepared.ok());
    for (const DistanceConstraint& constraint :
         {DistanceConstraint::None(), DistanceConstraint::Tight(2),
          DistanceConstraint::Diverse(2), DistanceConstraint::Diverse(3)}) {
      for (uint32_t k = 1; k <= 5; ++k) {
        for (uint32_t width : {1u, 3u, 8u}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " k=" << k
                       << " mode=" << static_cast<int>(constraint.mode)
                       << " d=" << constraint.d << " width=" << width);
          BeamSearchOptions options;
          options.beam_width = width;
          found += ExpectMatchesReference(*prepared, SizeConstraint{k, k + 4},
                                          constraint, options)
                       ? 1
                       : 0;
        }
      }
    }
  }
  EXPECT_GT(found, 100u);
}

TEST(BeamOracleTest, EqualScoresKeepTheLexicographicallySmallestKeys) {
  // Every key set of one size scores the same on a uniform schema, so the
  // bound prunes nothing and the (score desc, keys asc) order alone picks
  // the beam.
  size_t found = 0;
  for (const uint32_t chord : {2u, 3u, 5u}) {
    auto prepared = PreparedSchema::Create(
        testing_util::UniformSchemaGraph(13, chord), MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    for (const DistanceConstraint& constraint :
         {DistanceConstraint::None(), DistanceConstraint::Tight(2),
          DistanceConstraint::Diverse(2)}) {
      for (uint32_t k = 1; k <= 5; ++k) {
        for (uint32_t width : {1u, 3u}) {
          SCOPED_TRACE(::testing::Message()
                       << "chord=" << chord << " k=" << k
                       << " mode=" << static_cast<int>(constraint.mode)
                       << " width=" << width);
          BeamSearchOptions options;
          options.beam_width = width;
          found += ExpectMatchesReference(*prepared, SizeConstraint{k, k + 2},
                                          constraint, options)
                       ? 1
                       : 0;
        }
      }
    }
  }
  EXPECT_GT(found, 40u);
}

TEST(BeamOracleTest, WideningMatchesTheSetBeam) {
  // A width-1 beam that dead-ends under diverse d=3 and only succeeds
  // after widening; the stats then sum over every attempt.
  size_t widened = 0;
  for (uint64_t seed = 800; seed < 860 && widened < 3; ++seed) {
    const SchemaGraph schema = testing_util::RandomSchemaGraph(seed, 14, 18);
    auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    for (uint32_t k = 3; k <= 4; ++k) {
      const SizeConstraint size{k, k + 3};
      const DistanceConstraint diverse = DistanceConstraint::Diverse(3);
      BeamSearchOptions narrow;
      narrow.beam_width = 1;
      narrow.max_beam_width = 1;
      if (BeamSearchDiscover(*prepared, size, diverse, narrow).ok()) continue;
      BeamSearchOptions widening;
      widening.beam_width = 1;
      widening.max_beam_width = 64;
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " k=" << k);
      if (ExpectMatchesReference(*prepared, size, diverse, widening)) {
        ++widened;
      }
    }
  }
  EXPECT_GT(widened, 0u);
}

}  // namespace
}  // namespace egp
