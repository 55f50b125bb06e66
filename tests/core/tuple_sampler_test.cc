#include "core/tuple_sampler.h"

#include <gtest/gtest.h>

#include "core/discover.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

class TupleSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    auto prepared = PreparedSchema::Create(
        SchemaGraph::FromEntityGraph(graph_), MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
    auto preview = Discover(*prepared_, "auto", SizeConstraint{2, 6},
                            DistanceConstraint::None());
    ASSERT_TRUE(preview.ok());
    preview_ = std::move(preview).value();
  }

  EntityGraph graph_;
  std::unique_ptr<PreparedSchema> prepared_;
  Preview preview_;
};

TEST_F(TupleSamplerTest, MaterializesRequestedRows) {
  TupleSamplerOptions options;
  options.rows_per_table = 2;
  const auto mat = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(mat.ok());
  ASSERT_EQ(mat->tables.size(), 2u);
  for (const MaterializedTable& table : mat->tables) {
    EXPECT_LE(table.rows.size(), 2u);
    EXPECT_GE(table.rows.size(), 1u);
    EXPECT_EQ(table.columns.size(),
              preview_.tables[&table - mat->tables.data()].nonkeys.size());
  }
}

TEST_F(TupleSamplerTest, AllTuplesWhenFewerThanRequested) {
  TupleSamplerOptions options;
  options.rows_per_table = 100;
  const auto mat = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(mat.ok());
  // FILM has 4 entities; the table shows all of them.
  EXPECT_EQ(mat->tables[0].rows.size(), mat->tables[0].total_tuples);
}

TEST_F(TupleSamplerTest, CellsMatchNeighborSets) {
  TupleSamplerOptions options;
  options.rows_per_table = 100;
  const auto mat = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(mat.ok());
  for (const MaterializedTable& table : mat->tables) {
    for (const MaterializedRow& row : table.rows) {
      ASSERT_EQ(row.cells.size(), table.columns.size());
      for (size_t c = 0; c < table.columns.size(); ++c) {
        ASSERT_EQ(table.columns[c].rel_types.size(), 1u);
        const auto expected =
            graph_.NeighborSet(row.key, table.columns[c].rel_types[0],
                               table.columns[c].direction);
        EXPECT_EQ(row.cells[c].values, expected);
      }
    }
  }
}

TEST_F(TupleSamplerTest, DeterministicUnderSeed) {
  TupleSamplerOptions options;
  options.rows_per_table = 2;
  options.seed = 99;
  const auto a = MaterializePreview(graph_, *prepared_, preview_, options);
  const auto b = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t t = 0; t < a->tables.size(); ++t) {
    ASSERT_EQ(a->tables[t].rows.size(), b->tables[t].rows.size());
    for (size_t r = 0; r < a->tables[t].rows.size(); ++r) {
      EXPECT_EQ(a->tables[t].rows[r].key, b->tables[t].rows[r].key);
    }
  }
}

TEST_F(TupleSamplerTest, FrequencyWeightedPrefersFilledRows) {
  // Under the frequency-weighted strategy, the FILM table should prefer
  // films with non-empty Genres/Director cells (Hancock lacks genres).
  TupleSamplerOptions options;
  options.rows_per_table = 1;
  options.strategy = SamplingStrategy::kFrequencyWeighted;
  const auto mat = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(mat.ok());
  const MaterializedTable& film = mat->tables[0];
  ASSERT_EQ(film.rows.size(), 1u);
  size_t non_empty = 0;
  for (const MaterializedCell& cell : film.rows[0].cells) {
    if (!cell.values.empty()) ++non_empty;
  }
  EXPECT_GE(non_empty, film.columns.size() - 1);
}

TEST_F(TupleSamplerTest, FailsOnUnderivedSchema) {
  SchemaGraph direct;
  direct.AddType("A", 1);
  direct.AddType("B", 1);
  direct.AddEdge("r", 0, 1, 1);
  auto prepared = PreparedSchema::Create(direct, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  Preview preview;
  PreviewTable table;
  table.key = 0;
  table.nonkeys = {prepared->Candidates(0).sorted[0]};
  preview.tables = {table};
  const auto mat = MaterializePreview(graph_, *prepared, preview);
  EXPECT_FALSE(mat.ok());
  EXPECT_EQ(mat.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TupleSamplerTest, MultiwayMergeFoldsSameSurfaceColumns) {
  // Appendix B: attributes sharing a surface name fold into one multi-way
  // column. AWARD's two "Award Winners" relationship types (actor- and
  // director-side) become a single column listing both target types.
  const TypeId award = *prepared_->schema().type_names().Find("AWARD");
  Preview preview;
  PreviewTable table;
  table.key = award;
  table.nonkeys = prepared_->Candidates(award).sorted;  // both variants
  preview.tables = {table};

  TupleSamplerOptions options;
  options.rows_per_table = 3;
  options.merge_multiway_columns = true;
  const auto mat = MaterializePreview(graph_, *prepared_, preview, options);
  ASSERT_TRUE(mat.ok());
  ASSERT_EQ(mat->tables[0].columns.size(), 1u);
  const MaterializedColumn& column = mat->tables[0].columns[0];
  EXPECT_EQ(column.name, "Award Winners");
  EXPECT_EQ(column.rel_types.size(), 2u);
  EXPECT_NE(column.target.find("FILM ACTOR"), std::string::npos);
  EXPECT_NE(column.target.find("FILM DIRECTOR"), std::string::npos);
  // Razzie Award's winner comes via the director-side relationship; the
  // merged cell still finds it.
  const EntityId razzie = *graph_.entity_names().Find("Razzie Award");
  bool found_barry = false;
  for (const MaterializedRow& row : mat->tables[0].rows) {
    if (row.key != razzie) continue;
    for (EntityId v : row.cells[0].values) {
      if (graph_.EntityName(v) == "Barry Sonnenfeld") found_barry = true;
    }
  }
  EXPECT_TRUE(found_barry);
}

TEST_F(TupleSamplerTest, MultiwayMergeOffKeepsColumnsSeparate) {
  const TypeId award = *prepared_->schema().type_names().Find("AWARD");
  Preview preview;
  PreviewTable table;
  table.key = award;
  table.nonkeys = prepared_->Candidates(award).sorted;
  preview.tables = {table};
  const auto mat = MaterializePreview(graph_, *prepared_, preview);
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->tables[0].columns.size(), 2u);
}

TEST_F(TupleSamplerTest, ColumnMetadataNamesTargets) {
  const auto mat = MaterializePreview(graph_, *prepared_, preview_);
  ASSERT_TRUE(mat.ok());
  const MaterializedTable& film = mat->tables[0];
  EXPECT_EQ(film.key_name, "FILM");
  bool found_genres = false;
  for (const MaterializedColumn& column : film.columns) {
    if (column.name == "Genres") {
      found_genres = true;
      EXPECT_EQ(column.target, "FILM GENRE");
      EXPECT_EQ(column.direction, Direction::kOutgoing);
    }
  }
  EXPECT_TRUE(found_genres);
}

}  // namespace
}  // namespace egp
