#include "core/advisor.h"

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

TEST(AdvisorTest, SuggestionIsFeasible) {
  const PreparedSchema prepared = PreparePaper();
  const ConstraintSuggestion s = SuggestConstraints(prepared);
  EXPECT_GE(s.size.k, 1u);
  EXPECT_GE(s.size.n, s.size.k);
  EXPECT_GE(s.tight_d, 1u);
  EXPECT_GE(s.diverse_d, 2u);
  EXPECT_FALSE(s.rationale.empty());
}

TEST(AdvisorTest, TightSuggestionBelowDiameter) {
  // §6.2: a tight constraint at/above the diameter filters nothing.
  const PreparedSchema prepared = PreparePaper();
  const ConstraintSuggestion s = SuggestConstraints(prepared);
  EXPECT_LT(s.tight_d, std::max(prepared.distances().Diameter(), 2u));
}

TEST(AdvisorTest, SmallerDisplayFewerTables) {
  const PreparedSchema prepared = PreparePaper();
  DisplayBudget phone;
  phone.width_chars = 40;
  phone.height_rows = 14;
  DisplayBudget monitor;
  monitor.width_chars = 200;
  monitor.height_rows = 80;
  const ConstraintSuggestion small = SuggestConstraints(prepared, phone);
  const ConstraintSuggestion large = SuggestConstraints(prepared, monitor);
  EXPECT_LE(small.size.k, large.size.k);
  EXPECT_LE(small.size.n, large.size.n);
}

TEST(AdvisorTest, KCappedByEligibleTypes) {
  SchemaGraph tiny;
  tiny.AddType("A", 5);
  tiny.AddType("B", 5);
  tiny.AddType("ISOLATED", 5);
  tiny.AddEdge("r", 0, 1, 3);
  auto prepared = PreparedSchema::Create(tiny, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  DisplayBudget huge;
  huge.height_rows = 1000;
  const ConstraintSuggestion s = SuggestConstraints(*prepared, huge);
  EXPECT_LE(s.size.k, 2u);  // only two eligible key types
}

TEST(AdvisorTest, NCappedByAvailableCandidates) {
  SchemaGraph tiny;
  tiny.AddType("A", 5);
  tiny.AddType("B", 5);
  tiny.AddEdge("r", 0, 1, 3);  // two candidates total (both directions)
  auto prepared = PreparedSchema::Create(tiny, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  DisplayBudget wide;
  wide.width_chars = 4000;
  const ConstraintSuggestion s = SuggestConstraints(*prepared, wide);
  EXPECT_LE(s.size.n, 2u);
}

TEST(AdvisorTest, SuggestionsAreDiscoverable) {
  // The advisor's output should define solvable problems on assorted
  // random schemas.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const SchemaGraph schema =
        testing_util::RandomSchemaGraph(seed, 12, 24);
    auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    const ConstraintSuggestion s = SuggestConstraints(*prepared);
    auto preview = DynamicProgrammingDiscover(
        *prepared, SizeConstraint{s.size.k, s.size.n});
    EXPECT_TRUE(preview.ok()) << "seed " << seed << ": "
                              << preview.status().ToString();
  }
}

}  // namespace
}  // namespace egp
