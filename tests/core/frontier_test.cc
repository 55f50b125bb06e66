#include "core/frontier.h"

#include <gtest/gtest.h>

#include "core/dynamic_programming.h"
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

TEST(FrontierTest, MatchesKnownPaperOptima) {
  const PreparedSchema prepared = PreparePaper();
  auto frontier = ComputeScoreFrontier(prepared, 3, 8);
  ASSERT_TRUE(frontier.ok());
  // §4 example: optimal concise k=2, n=6 scores 84; single best table
  // with 3 attributes scores 60.
  EXPECT_DOUBLE_EQ(frontier->At(2, 6), 84.0);
  EXPECT_DOUBLE_EQ(frontier->At(1, 3), 60.0);
}

TEST(FrontierTest, MatchesDpOnEveryCell) {
  const PreparedSchema prepared = PreparePaper();
  const uint32_t max_k = 4, max_n = 8;
  auto frontier = ComputeScoreFrontier(prepared, max_k, max_n);
  ASSERT_TRUE(frontier.ok());
  for (uint32_t k = 1; k <= max_k; ++k) {
    for (uint32_t n = k; n <= max_n; ++n) {
      const auto preview =
          DynamicProgrammingDiscover(prepared, SizeConstraint{k, n});
      if (preview.ok()) {
        EXPECT_NEAR(frontier->At(k, n), preview->Score(prepared), 1e-9)
            << "k=" << k << " n=" << n;
      } else {
        EXPECT_LT(frontier->At(k, n), 0.0) << "k=" << k << " n=" << n;
      }
    }
  }
}

TEST(FrontierTest, MonotoneInAttributeBudget) {
  const SchemaGraph schema = testing_util::RandomSchemaGraph(42, 10, 20);
  auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  auto frontier = ComputeScoreFrontier(*prepared, 5, 10);
  ASSERT_TRUE(frontier.ok());
  // "At most n" is monotone in n by definition. Note that the frontier is
  // NOT monotone in k: with exactly k tables, every extra table consumes
  // one of the n mandatory attribute slots, so under a binding n more
  // tables can score less (Proposition 1 compares supersets, which need a
  // larger n).
  for (uint32_t k = 1; k <= 5; ++k) {
    for (uint32_t n = k + 1; n <= 10; ++n) {
      if (frontier->At(k, n) < 0 || frontier->At(k, n - 1) < 0) continue;
      EXPECT_GE(frontier->At(k, n), frontier->At(k, n - 1));
    }
  }
}

TEST(FrontierTest, InfeasibleCellsNegative) {
  SchemaGraph tiny;
  tiny.AddType("A", 3);
  tiny.AddType("B", 3);
  tiny.AddEdge("r", 0, 1, 2);
  auto prepared = PreparedSchema::Create(tiny, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  auto frontier = ComputeScoreFrontier(*prepared, 4, 6);
  ASSERT_TRUE(frontier.ok());
  EXPECT_GE(frontier->At(2, 2), 0.0);  // two eligible types
  EXPECT_LT(frontier->At(3, 4), 0.0);  // only two types exist
}

TEST(FrontierTest, MarginalTableValues) {
  const PreparedSchema prepared = PreparePaper();
  auto frontier = ComputeScoreFrontier(prepared, 3, 8);
  ASSERT_TRUE(frontier.ok());
  EXPECT_DOUBLE_EQ(frontier->MarginalTable(1, 6), frontier->At(1, 6));
  EXPECT_NEAR(frontier->MarginalTable(2, 6),
              frontier->At(2, 6) - frontier->At(1, 6), 1e-9);
}

TEST(FrontierTest, KneeFindsCompactHighValuePreview) {
  const PreparedSchema prepared = PreparePaper();
  auto frontier = ComputeScoreFrontier(prepared, 4, 10);
  ASSERT_TRUE(frontier.ok());
  const ScoreFrontier::Point knee = frontier->KneeAt(0.8);
  ASSERT_GT(knee.k, 0u);
  EXPECT_GE(knee.score, frontier->At(4, 10) * 0.8);
  // The knee is never larger than the full budget.
  EXPECT_LE(knee.k, 4u);
  EXPECT_LE(knee.n, 10u);
  // And strictly smaller here: the paper example saturates quickly.
  EXPECT_LT(knee.k + knee.n, 14u);
}

TEST(FrontierTest, InvalidArguments) {
  const PreparedSchema prepared = PreparePaper();
  EXPECT_FALSE(ComputeScoreFrontier(prepared, 0, 5).ok());
  EXPECT_FALSE(ComputeScoreFrontier(prepared, 5, 0).ok());
  EXPECT_FALSE(ComputeScoreFrontier(prepared, 5, 3).ok());
}

}  // namespace
}  // namespace egp
