// Unit tests of the discovery algorithms and their name-keyed dispatch on
// the paper's running example and hand-checkable schema graphs.
#include <gtest/gtest.h>

#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/brute_force.h"
#include "core/discover.h"
#include "core/dynamic_programming.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

class DiscoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    auto prepared = PreparedSchema::Create(
        SchemaGraph::FromEntityGraph(graph_), MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
  }

  TypeId Type(std::string_view name) const {
    return *prepared_->schema().type_names().Find(name);
  }

  EntityGraph graph_;
  std::unique_ptr<PreparedSchema> prepared_;
};

TEST_F(DiscoveryTest, BruteForceFindsPaperConciseOptimum) {
  const auto preview = BruteForceDiscover(*prepared_, SizeConstraint{2, 6},
                                          DistanceConstraint::None());
  ASSERT_TRUE(preview.ok()) << preview.status().ToString();
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
  EXPECT_TRUE(ValidatePreview(*preview, *prepared_, SizeConstraint{2, 6},
                              DistanceConstraint::None())
                  .ok());
}

TEST_F(DiscoveryTest, DynamicProgrammingMatches) {
  const auto preview =
      DynamicProgrammingDiscover(*prepared_, SizeConstraint{2, 6});
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
  EXPECT_TRUE(ValidatePreview(*preview, *prepared_, SizeConstraint{2, 6},
                              DistanceConstraint::None())
                  .ok());
}

TEST_F(DiscoveryTest, DiverseOptimumIsFilmPlusAward) {
  // §4: optimal diverse preview (k=2, n=6, d=2) = {FILM×5, AWARD×1}.
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{2, 6},
                                       DistanceConstraint::Diverse(2));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 78.0);
  std::vector<TypeId> keys = preview->Keys();
  std::vector<TypeId> expected = {Type("FILM"), Type("AWARD")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);
}

TEST_F(DiscoveryTest, TightOptimumMatchesConciseHere) {
  // All of FILM's neighbours are at distance 1, so tight d=1 admits the
  // concise optimum.
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{2, 6},
                                       DistanceConstraint::Tight(1));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
}

TEST_F(DiscoveryTest, SingleTablePreviews) {
  for (const char* algorithm : {"bf", "dp"}) {
    const auto preview = Discover(*prepared_, algorithm, SizeConstraint{1, 3},
                                  DistanceConstraint::None());
    ASSERT_TRUE(preview.ok()) << algorithm;
    // Best single table: FILM with top-3 = 4·15 = 60.
    EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 60.0);
  }
}

TEST_F(DiscoveryTest, KEqualsOneApriori) {
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{1, 3},
                                       DistanceConstraint::Diverse(2));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 60.0);
}

TEST_F(DiscoveryTest, InvalidSizeConstraints) {
  EXPECT_FALSE(BruteForceDiscover(*prepared_, SizeConstraint{0, 5},
                                  DistanceConstraint::None())
                   .ok());
  EXPECT_FALSE(BruteForceDiscover(*prepared_, SizeConstraint{3, 2},
                                  DistanceConstraint::None())
                   .ok());
  EXPECT_FALSE(DynamicProgrammingDiscover(*prepared_, SizeConstraint{0, 5})
                   .ok());
  EXPECT_FALSE(AprioriDiscover(*prepared_, SizeConstraint{3, 2},
                               DistanceConstraint::Tight(2))
                   .ok());
}

TEST_F(DiscoveryTest, InfeasibleDistanceConstraintIsNotFound) {
  // No pair of types is at distance ≥ 10 in this schema.
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{2, 6},
                                       DistanceConstraint::Diverse(10));
  EXPECT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
  const auto bf = BruteForceDiscover(*prepared_, SizeConstraint{2, 6},
                                     DistanceConstraint::Diverse(10));
  EXPECT_EQ(bf.status().code(), StatusCode::kNotFound);
}

TEST_F(DiscoveryTest, KExceedsEligibleTypes) {
  const auto preview = BruteForceDiscover(*prepared_, SizeConstraint{7, 10},
                                          DistanceConstraint::None());
  EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
}

TEST_F(DiscoveryTest, StatsCountSubsets) {
  DiscoveryStats stats;
  const auto preview =
      BruteForceDiscover(*prepared_, SizeConstraint{2, 6},
                         DistanceConstraint::None(), BruteForceOptions{},
                         &stats);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(stats.subsets_enumerated, 15u);  // C(6,2)
  EXPECT_EQ(stats.subsets_scored, 15u);
  EXPECT_FALSE(stats.truncated);
}

TEST_F(DiscoveryTest, TruncationStopsEnumeration) {
  DiscoveryStats stats;
  BruteForceOptions options;
  options.max_subsets = 3;
  const auto preview = BruteForceDiscover(
      *prepared_, SizeConstraint{2, 6}, DistanceConstraint::None(), options,
      &stats);
  ASSERT_TRUE(preview.ok());  // best-so-far is still returned
  EXPECT_EQ(stats.subsets_enumerated, 3u);
  EXPECT_TRUE(stats.truncated);
}

/// A canonical string of a preview for exact comparisons: keys and
/// non-key (edge, direction) in discovery order.
std::string PreviewShape(const Preview& preview) {
  std::string shape;
  for (const PreviewTable& table : preview.tables) {
    shape += std::to_string(table.key) + ":";
    for (const NonKeyCandidate& c : table.nonkeys) {
      shape += std::to_string(c.schema_edge) +
               (c.direction == Direction::kOutgoing ? "o," : "i,");
    }
    shape += ";";
  }
  return shape;
}

TEST_F(DiscoveryTest, DispatchMatchesDirectCalls) {
  const SizeConstraint size{2, 6};
  const struct {
    const char* label;
    DistanceConstraint distance;
  } spaces[] = {{"concise", DistanceConstraint::None()},
                {"tight", DistanceConstraint::Tight(1)},
                {"diverse", DistanceConstraint::Diverse(2)}};
  const struct {
    const char* name;
    const char* concise;  // resolved name on a concise request
    const char* bounded;  // resolved name under a distance constraint
  } names[] = {{"auto", "dp", "apriori"}, {"bf", "bf", "bf"},
               {"bruteforce", "bf", "bf"}, {"dp", "dp", "dp"},
               {"apriori", "apriori", "apriori"}, {"beam", "beam", "beam"}};
  for (const auto& space : spaces) {
    const bool concise = space.distance.mode == DistanceMode::kNone;
    for (const auto& name : names) {
      SCOPED_TRACE(std::string(name.name) + " / " + space.label);
      const std::string expected = concise ? name.concise : name.bounded;
      DiscoveryStats stats;
      std::string resolved;
      const auto preview = Discover(*prepared_, name.name, size,
                                    space.distance, &stats, &resolved);
      EXPECT_EQ(resolved, expected);
      if (expected == "dp" && !concise) {
        ASSERT_FALSE(preview.ok());
        EXPECT_EQ(preview.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(preview.status().message(),
                  "the dynamic-programming algorithm only solves the concise "
                  "space; distance constraints lack its optimal substructure");
        continue;
      }
      ASSERT_TRUE(preview.ok()) << preview.status().ToString();

      DiscoveryStats direct_stats;
      Result<Preview> direct = Status::Internal("unset");
      if (expected == "bf") {
        direct = BruteForceDiscover(*prepared_, size, space.distance,
                                    BruteForceOptions{}, &direct_stats);
      } else if (expected == "dp") {
        direct = DynamicProgrammingDiscover(*prepared_, size);
      } else if (expected == "apriori") {
        direct = AprioriDiscover(*prepared_, size, space.distance,
                                 AprioriOptions{}, &direct_stats);
      } else {
        direct = BeamSearchDiscover(*prepared_, size, space.distance,
                                    BeamSearchOptions{}, &direct_stats);
      }
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(PreviewShape(*preview), PreviewShape(*direct));
      EXPECT_EQ(preview->Score(*prepared_), direct->Score(*prepared_));
      EXPECT_EQ(stats.subsets_enumerated, direct_stats.subsets_enumerated);
    }
  }
}

TEST_F(DiscoveryTest, UnknownAlgorithmListsAvailableNames) {
  std::string resolved = "untouched";
  const auto preview = Discover(*prepared_, "quantum", SizeConstraint{2, 6},
                                DistanceConstraint::None(), nullptr,
                                &resolved);
  ASSERT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(preview.status().message().find(
                "available: auto, bf, dp, apriori, beam"),
            std::string::npos);
  EXPECT_EQ(resolved, "untouched");
}

TEST(DiscoveryEdgeCaseTest, PreviewMayUseFewerThanNAttributes) {
  // Footnote 2: a preview with fewer than n non-keys may be optimal. One
  // high-coverage key with a single huge attribute beats spreading out.
  SchemaGraph schema;
  schema.AddType("BIG", 1000);
  schema.AddType("SMALL", 1);
  schema.AddType("OTHER", 1);
  schema.AddEdge("big-rel", 0, 2, 500);
  schema.AddEdge("tiny-rel", 1, 2, 1);
  auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  const auto preview =
      DynamicProgrammingDiscover(*prepared, SizeConstraint{1, 5});
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->tables[0].key, 0u);
  EXPECT_EQ(preview->TotalNonKeys(), 1u);  // only one candidate exists
}

TEST(DiscoveryEdgeCaseTest, ZeroScoreTypesStillFormValidPreviews) {
  SchemaGraph schema;
  schema.AddType("A", 0);  // zero entities → zero coverage score
  schema.AddType("B", 0);
  schema.AddEdge("r", 0, 1, 0);
  auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  const auto preview =
      DynamicProgrammingDiscover(*prepared, SizeConstraint{2, 2});
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared), 0.0);
  EXPECT_EQ(preview->tables.size(), 2u);
}

}  // namespace
}  // namespace egp
