#include "core/incremental.h"

#include <gtest/gtest.h>

#include "core/candidates.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    schema_ = SchemaGraph::FromEntityGraph(graph_);
    film_ = *schema_.type_names().Find("FILM");
    for (uint32_t e = 0; e < schema_.num_edges(); ++e) {
      if (schema_.SurfaceName(schema_.Edge(e)) == "Genres") genres_edge_ = e;
    }
  }

  EntityGraph graph_;
  SchemaGraph schema_;
  TypeId film_ = kInvalidId;
  uint32_t genres_edge_ = kInvalidId;
};

TEST_F(IncrementalTest, SnapshotsInitialCounts) {
  IncrementalSchemaStats stats(schema_);
  EXPECT_EQ(stats.TypeEntityCount(film_), 4u);
  EXPECT_EQ(stats.EdgeCount(genres_edge_), 5u);
  EXPECT_TRUE(stats.DirtyTypes().empty());
}

TEST_F(IncrementalTest, EntityUpdatesAdjustCounts) {
  IncrementalSchemaStats stats(schema_);
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEntity(film_)).ok());
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEntity(film_)).ok());
  EXPECT_EQ(stats.TypeEntityCount(film_), 6u);
  ASSERT_TRUE(stats.Apply(GraphUpdate::RemoveEntity(film_)).ok());
  EXPECT_EQ(stats.TypeEntityCount(film_), 5u);
  EXPECT_EQ(stats.total_updates(), 3u);
}

TEST_F(IncrementalTest, EdgeUpdatesMarkBothEndpointsDirty) {
  IncrementalSchemaStats stats(schema_);
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEdge(genres_edge_)).ok());
  EXPECT_EQ(stats.EdgeCount(genres_edge_), 6u);
  const SchemaEdge& edge = schema_.Edge(genres_edge_);
  EXPECT_TRUE(stats.IsDirty(edge.src));
  EXPECT_TRUE(stats.IsDirty(edge.dst));
  EXPECT_EQ(stats.DirtyTypes().size(), 2u);
}

TEST_F(IncrementalTest, ClearDirtyResets) {
  IncrementalSchemaStats stats(schema_);
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEntity(film_)).ok());
  EXPECT_FALSE(stats.DirtyTypes().empty());
  stats.ClearDirty();
  EXPECT_TRUE(stats.DirtyTypes().empty());
  // Counts persist across ClearDirty.
  EXPECT_EQ(stats.TypeEntityCount(film_), 5u);
}

TEST_F(IncrementalTest, UnderflowRejected) {
  IncrementalSchemaStats stats(schema_);
  // FILM PRODUCER has exactly one entity.
  const TypeId producer = *schema_.type_names().Find("FILM PRODUCER");
  ASSERT_TRUE(stats.Apply(GraphUpdate::RemoveEntity(producer)).ok());
  const Status underflow = stats.Apply(GraphUpdate::RemoveEntity(producer));
  EXPECT_EQ(underflow.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stats.TypeEntityCount(producer), 0u);
}

TEST_F(IncrementalTest, UnknownIdsRejected) {
  IncrementalSchemaStats stats(schema_);
  EXPECT_EQ(stats.Apply(GraphUpdate::AddEntity(999)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.Apply(GraphUpdate::AddEdge(999)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IncrementalTest, ApplyAllStopsAtFirstFailure) {
  IncrementalSchemaStats stats(schema_);
  const std::vector<GraphUpdate> updates = {
      GraphUpdate::AddEntity(film_),
      GraphUpdate::AddEntity(999),  // fails
      GraphUpdate::AddEntity(film_),
  };
  EXPECT_FALSE(stats.ApplyAll(updates).ok());
  EXPECT_EQ(stats.TypeEntityCount(film_), 5u);  // only the first applied
}

TEST_F(IncrementalTest, ToSchemaGraphReflectsUpdates) {
  IncrementalSchemaStats stats(schema_);
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEntity(film_)).ok());
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEdge(genres_edge_)).ok());
  const SchemaGraph updated = stats.ToSchemaGraph();
  EXPECT_EQ(updated.num_types(), schema_.num_types());
  EXPECT_EQ(updated.num_edges(), schema_.num_edges());
  EXPECT_EQ(updated.TypeEntityCount(film_), 5u);
  EXPECT_EQ(updated.Edge(genres_edge_).edge_count, 6u);
  // Names preserved.
  EXPECT_EQ(updated.TypeName(film_), "FILM");
}

TEST_F(IncrementalTest, RefreshedPreparationMatchesFromScratch) {
  // The §5 claim in action: apply updates incrementally, re-prepare, and
  // compare against preparing a schema built from scratch with the same
  // final counts.
  IncrementalSchemaStats stats(schema_);
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEdge(genres_edge_)).ok());
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEdge(genres_edge_)).ok());
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEntity(film_)).ok());

  auto refreshed =
      PreparedSchema::Create(stats.ToSchemaGraph(), MeasureSelection{});
  ASSERT_TRUE(refreshed.ok());
  EXPECT_DOUBLE_EQ(refreshed->KeyScore(film_), 5.0);
  // Genres coverage rose from 5 to 7: it now outranks Actor (6) in FILM's
  // candidate list.
  const TypeCandidates& cands = refreshed->Candidates(film_);
  const SchemaEdge& top = refreshed->schema().Edge(cands.sorted[0].schema_edge);
  EXPECT_EQ(refreshed->schema().SurfaceName(top), "Genres");
  EXPECT_DOUBLE_EQ(cands.sorted[0].score, 7.0);
}

TEST_F(IncrementalTest, DirtySetGuidesSelectiveRefresh) {
  IncrementalSchemaStats stats(schema_);
  const TypeId award = *schema_.type_names().Find("AWARD");
  ASSERT_TRUE(stats.Apply(GraphUpdate::AddEdge(genres_edge_)).ok());
  // AWARD is untouched by a Genres update.
  EXPECT_FALSE(stats.IsDirty(award));
  EXPECT_TRUE(stats.IsDirty(film_));
}

}  // namespace
}  // namespace egp
