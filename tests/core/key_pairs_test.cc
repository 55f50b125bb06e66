// KeyPairs derived from the pair rows a PreparedSchema caches must admit
// exactly the pairs DistanceConstraint::SatisfiedBy admits, for every
// mode and distance, including unreachable pairs, ineligible types in
// between eligible ones and rows longer than one word.
#include "core/key_pairs.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/candidates.h"

namespace egp {
namespace {

// `num_types` types, about a fifth of them without any edge (ineligible),
// the rest split into `components` groups with random edges inside each
// group only, so pairs across groups are unreachable.
SchemaGraph ComponentSchema(uint64_t seed, uint32_t num_types,
                            uint32_t components, uint32_t edges_per_type) {
  Rng rng(seed);
  SchemaGraph schema;
  std::vector<std::vector<TypeId>> groups(components);
  for (uint32_t t = 0; t < num_types; ++t) {
    schema.AddType("T" + std::to_string(t), 10);
    if (!rng.NextBernoulli(0.2)) {
      groups[rng.NextBounded(components)].push_back(t);
    }
  }
  uint32_t edge = 0;
  for (const std::vector<TypeId>& group : groups) {
    if (group.size() < 2) continue;
    // A path keeps the group connected; random chords shorten it.
    for (size_t i = 0; i + 1 < group.size(); ++i) {
      schema.AddEdge("r" + std::to_string(edge++), group[i], group[i + 1], 5);
    }
    for (size_t e = 0; e < group.size() * (edges_per_type - 1); ++e) {
      schema.AddEdge("r" + std::to_string(edge++),
                     group[rng.NextBounded(group.size())],
                     group[rng.NextBounded(group.size())], 5);
    }
  }
  return schema;
}

// A ring of `num_types` types: ⌊num_types / 2⌋ distinct distances.
SchemaGraph RingSchema(uint32_t num_types) {
  SchemaGraph schema;
  for (uint32_t t = 0; t < num_types; ++t) {
    schema.AddType("R" + std::to_string(t), 10);
  }
  for (uint32_t t = 0; t < num_types; ++t) {
    schema.AddEdge("e" + std::to_string(t), t, (t + 1) % num_types, 5);
  }
  return schema;
}

PreparedSchema Prepare(const SchemaGraph& schema) {
  auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  return std::move(prepared).value();
}

void ExpectMatchesDistances(const PreparedSchema& prepared,
                            const DistanceConstraint& distance) {
  SCOPED_TRACE(::testing::Message()
               << "mode=" << static_cast<int>(distance.mode)
               << " d=" << distance.d);
  const KeyPairs pairs(prepared, distance);
  std::vector<TypeId> eligible;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    if (prepared.Eligible(t)) eligible.push_back(t);
  }
  ASSERT_EQ(pairs.eligible(), eligible);
  ASSERT_EQ(pairs.words(), (eligible.size() + 63) / 64);
  const SchemaDistanceMatrix& dist = prepared.distances();
  size_t mismatches = 0;
  for (uint32_t i = 0; i < pairs.size(); ++i) {
    EXPECT_FALSE(pairs.Compatible(i, i)) << i;
    for (uint32_t j = 0; j < pairs.size(); ++j) {
      if (i == j) continue;
      const bool expected =
          distance.SatisfiedBy(dist.Distance(eligible[i], eligible[j]));
      mismatches += pairs.Compatible(i, j) != expected;
    }
    // No bit past the last eligible type.
    for (size_t bit = pairs.size(); bit < pairs.words() * 64; ++bit) {
      EXPECT_EQ((pairs.Row(i)[bit / 64] >> (bit % 64)) & 1, 0u) << bit;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// Every mode at every distance that matters, and beyond.
void ExpectAllConstraintsMatch(const PreparedSchema& prepared) {
  ExpectMatchesDistances(prepared, DistanceConstraint::None());
  std::vector<uint32_t> ds;
  for (uint32_t d = 0; d <= prepared.distances().Diameter() + 2; ++d) {
    ds.push_back(d);
  }
  ds.push_back(UINT32_MAX);
  for (uint32_t d : ds) {
    ExpectMatchesDistances(prepared, DistanceConstraint::Tight(d));
    ExpectMatchesDistances(prepared, DistanceConstraint::Diverse(d));
  }
}

TEST(KeyPairsTest, CachedRowsMatchDistancesOnDisconnectedSchemas) {
  size_t unreachable = 0;
  size_t ineligible = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const PreparedSchema prepared = Prepare(ComponentSchema(
        seed, 10 + static_cast<uint32_t>(seed) * 3,
        1 + static_cast<uint32_t>(seed % 3), 1 + seed % 2));
    EXPECT_TRUE(prepared.pair_rows().cached());
    ExpectAllConstraintsMatch(prepared);
    const std::vector<TypeId>& eligible = prepared.pair_rows().eligible();
    ineligible += prepared.num_types() - eligible.size();
    for (TypeId a : eligible) {
      for (TypeId b : eligible) {
        unreachable += prepared.distances().Distance(a, b) ==
                       SchemaDistanceMatrix::kUnreachable;
      }
    }
  }
  // The schemas do exercise both.
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(ineligible, 0u);
}

TEST(KeyPairsTest, RowsSpanSeveralWords) {
  const PreparedSchema prepared = Prepare(ComponentSchema(7, 200, 2, 2));
  ASSERT_GT(prepared.pair_rows().eligible().size(), 128u);
  EXPECT_TRUE(prepared.pair_rows().cached());
  ExpectAllConstraintsMatch(prepared);
}

TEST(KeyPairsTest, PairRowsKeepOnlyTheDistancesPairsAreApart) {
  // A ring of 40 types has distances 1…20: 20 blocks of 40 one-word rows.
  const PreparedSchema prepared = Prepare(RingSchema(40));
  const PairRows& rows = prepared.pair_rows();
  ASSERT_TRUE(rows.cached());
  EXPECT_EQ(rows.Within(0), nullptr);
  EXPECT_NE(rows.Within(1), nullptr);
  EXPECT_EQ(rows.Within(20), rows.Within(UINT32_MAX));
  EXPECT_GE(rows.ApproximateBytes(), 20u * 40u * sizeof(uint64_t));
  EXPECT_GE(prepared.ApproximateBytes(), rows.ApproximateBytes());

  // Past max_words only the eligible types are kept.
  const PairRows capped(rows.eligible(), prepared.distances(),
                        /*max_words=*/20 * 40 - 1);
  EXPECT_FALSE(capped.cached());
  EXPECT_EQ(capped.eligible(), rows.eligible());
  EXPECT_LT(capped.ApproximateBytes(), 20u * 40u * sizeof(uint64_t));
}

TEST(KeyPairsTest, LargeSchemasFallBackToDistanceLookups) {
  // 520 types in a ring: 260 distances × 520 rows × 9 words is past
  // kMaxPairRowWords, so KeyPairs looks every pair up instead.
  const PreparedSchema prepared = Prepare(RingSchema(520));
  ASSERT_FALSE(prepared.pair_rows().cached());
  ExpectMatchesDistances(prepared, DistanceConstraint::None());
  for (uint32_t d : {0u, 1u, 2u, 130u, 259u, 260u, 261u, UINT32_MAX}) {
    ExpectMatchesDistances(prepared, DistanceConstraint::Tight(d));
    ExpectMatchesDistances(prepared, DistanceConstraint::Diverse(d));
  }
}

}  // namespace
}  // namespace egp
