// Property suite: the optimized discovery algorithms agree with the
// brute-force oracle on randomized schema graphs, across the full
// constraint grid. Scores are compared (arg max may be a tie set, §4);
// returned previews must additionally validate against the constraints
// and obey Theorem 3.
#include <gtest/gtest.h>

#include "core/apriori.h"
#include "core/brute_force.h"
#include "core/dynamic_programming.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

struct Instance {
  uint64_t seed;
  uint32_t num_types;
  uint32_t num_edges;
  uint32_t k;
  uint32_t n;
};

std::string InstanceName(const ::testing::TestParamInfo<Instance>& info) {
  const Instance& p = info.param;
  return "seed" + std::to_string(p.seed) + "_K" +
         std::to_string(p.num_types) + "_E" + std::to_string(p.num_edges) +
         "_k" + std::to_string(p.k) + "_n" + std::to_string(p.n);
}

class EquivalenceTest : public ::testing::TestWithParam<Instance> {
 protected:
  void SetUp() override {
    const Instance& p = GetParam();
    schema_ = testing_util::RandomSchemaGraph(p.seed, p.num_types,
                                              p.num_edges);
    auto prepared = PreparedSchema::Create(schema_, MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
  }

  SchemaGraph schema_;
  std::unique_ptr<PreparedSchema> prepared_;
};

TEST_P(EquivalenceTest, DpMatchesBruteForceOnConcise) {
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  const auto bf =
      BruteForceDiscover(*prepared_, size, DistanceConstraint::None());
  const auto dp = DynamicProgrammingDiscover(*prepared_, size);
  ASSERT_EQ(bf.ok(), dp.ok());
  if (!bf.ok()) return;
  EXPECT_NEAR(bf->Score(*prepared_), dp->Score(*prepared_), 1e-6);
  EXPECT_TRUE(ValidatePreview(*dp, *prepared_, size,
                              DistanceConstraint::None())
                  .ok());
}

TEST_P(EquivalenceTest, AprioriMatchesBruteForceOnTight) {
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  for (uint32_t d = 1; d <= 3; ++d) {
    const DistanceConstraint constraint = DistanceConstraint::Tight(d);
    const auto bf = BruteForceDiscover(*prepared_, size, constraint);
    const auto apriori = AprioriDiscover(*prepared_, size, constraint);
    ASSERT_EQ(bf.ok(), apriori.ok()) << "d=" << d;
    if (!bf.ok()) continue;
    EXPECT_NEAR(bf->Score(*prepared_), apriori->Score(*prepared_), 1e-6)
        << "d=" << d;
    EXPECT_TRUE(ValidatePreview(*apriori, *prepared_, size, constraint).ok());
  }
}

TEST_P(EquivalenceTest, AprioriMatchesBruteForceOnDiverse) {
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  for (uint32_t d = 1; d <= 3; ++d) {
    const DistanceConstraint constraint = DistanceConstraint::Diverse(d);
    const auto bf = BruteForceDiscover(*prepared_, size, constraint);
    const auto apriori = AprioriDiscover(*prepared_, size, constraint);
    ASSERT_EQ(bf.ok(), apriori.ok()) << "d=" << d;
    if (!bf.ok()) continue;
    EXPECT_NEAR(bf->Score(*prepared_), apriori->Score(*prepared_), 1e-6)
        << "d=" << d;
    EXPECT_TRUE(ValidatePreview(*apriori, *prepared_, size, constraint).ok());
  }
}

TEST_P(EquivalenceTest, Theorem3TopMAttributes) {
  // Every table of an optimal preview carries exactly the top-m candidates
  // of its key type.
  const Instance& p = GetParam();
  const auto dp =
      DynamicProgrammingDiscover(*prepared_, SizeConstraint{p.k, p.n});
  if (!dp.ok()) return;
  for (const PreviewTable& table : dp->tables) {
    const TypeCandidates& cands = prepared_->Candidates(table.key);
    ASSERT_LE(table.nonkeys.size(), cands.size());
    // Compare score sums: chosen == prefix (robust to equal-score ties).
    double chosen = 0.0;
    for (const NonKeyCandidate& c : table.nonkeys) chosen += c.score;
    EXPECT_NEAR(chosen, cands.TopSum(table.nonkeys.size()), 1e-9);
  }
}

TEST_P(EquivalenceTest, EntropyMeasureAgreesToo) {
  // Repeat DP ≡ BF under the asymmetric entropy measure on a derived
  // schema (the random schema has no entity graph, so re-derive one from
  // the paper example sizes by reusing coverage as a stand-in is not
  // possible; instead simply check with random-walk keys × coverage).
  MeasureSelection measures;
  measures.key = "randomwalk";
  auto prepared = PreparedSchema::Create(schema_, measures);
  ASSERT_TRUE(prepared.ok());
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  const auto bf =
      BruteForceDiscover(*prepared, size, DistanceConstraint::None());
  const auto dp = DynamicProgrammingDiscover(*prepared, size);
  ASSERT_EQ(bf.ok(), dp.ok());
  if (!bf.ok()) return;
  EXPECT_NEAR(bf->Score(*prepared), dp->Score(*prepared), 1e-9);
}

std::vector<Instance> MakeInstances() {
  std::vector<Instance> instances;
  uint64_t seed = 1000;
  for (uint32_t num_types : {4u, 6u, 9u, 12u}) {
    for (uint32_t num_edges : {5u, 12u, 24u}) {
      for (uint32_t k : {1u, 2u, 3u}) {
        for (uint32_t n : {3u, 6u}) {
          if (n < k) continue;
          instances.push_back(Instance{seed++, num_types, num_edges, k, n});
        }
      }
    }
  }
  return instances;
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, EquivalenceTest,
                         ::testing::ValuesIn(MakeInstances()), InstanceName);

}  // namespace
}  // namespace egp
