#include "core/tuple_sampler.h"

#include <gtest/gtest.h>

#include "core/discover.h"
#include "datagen/generator.h"
#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "tests/testing/edge_scan.h"

namespace egp {
namespace {

/// A preview with one table per key type listing every candidate
/// attribute of that type, so same-surface attributes (multi-way
/// relationships) sit side by side and merging has something to fold.
Preview EveryCandidatePreview(const PreparedSchema& prepared,
                              const std::vector<TypeId>& keys) {
  Preview preview;
  for (TypeId key : keys) {
    PreviewTable table;
    table.key = key;
    table.nonkeys = prepared.Candidates(key).sorted;
    preview.tables.push_back(table);
  }
  return preview;
}

/// Every sampled cell equals the union of its column's neighbour sets
/// computed by scanning the edge array (not the CSR the sampler reads),
/// under both strategies, merged and unmerged; every table holds
/// min(rows, members) distinct members of its key type, in the order of
/// EntitiesOfType.
void ExpectCellsMatchEdgeScan(const EntityGraph& graph,
                              const PreparedSchema& prepared,
                              const Preview& preview, size_t rows,
                              bool has_multiway) {
  const testing_util::EdgeScanAdjacency oracle(graph);
  size_t merged_columns = 0;
  for (const SamplingStrategy strategy :
       {SamplingStrategy::kRandom, SamplingStrategy::kFrequencyWeighted}) {
    for (const bool merge : {false, true}) {
      SCOPED_TRACE(std::string(strategy == SamplingStrategy::kRandom
                                   ? "random"
                                   : "frequency") +
                   (merge ? " merged" : " unmerged"));
      TupleSamplerOptions options;
      options.rows_per_table = rows;
      options.seed = 11;
      options.strategy = strategy;
      options.merge_multiway_columns = merge;
      const auto mat = MaterializePreview(graph, prepared, preview, options);
      ASSERT_TRUE(mat.ok()) << mat.status().ToString();
      ASSERT_EQ(mat->tables.size(), preview.tables.size());
      for (const MaterializedTable& table : mat->tables) {
        ASSERT_EQ(table.rows.size(),
                  std::min<size_t>(rows, table.total_tuples));
        const std::vector<EntityId>& members =
            graph.EntitiesOfType(table.key_type);
        size_t previous = 0;
        for (size_t r = 0; r < table.rows.size(); ++r) {
          const size_t position =
              std::find(members.begin(), members.end(), table.rows[r].key) -
              members.begin();
          ASSERT_LT(position, members.size());
          if (r > 0) {
            EXPECT_LT(previous, position);
          }
          previous = position;
        }
        for (const MaterializedColumn& column : table.columns) {
          if (column.rel_types.size() > 1) ++merged_columns;
        }
        for (const MaterializedRow& row : table.rows) {
          ASSERT_EQ(row.cells.size(), table.columns.size());
          for (size_t c = 0; c < table.columns.size(); ++c) {
            EXPECT_EQ(row.cells[c].values,
                      oracle.UnionSet(row.key, table.columns[c].rel_types,
                                      table.columns[c].direction))
                << "row " << row.key << " column " << table.columns[c].name;
          }
        }
      }
    }
  }
  EXPECT_EQ(merged_columns > 0, has_multiway);
}

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

TEST_F(TupleSamplerTest, CellsMatchEdgeScanOnPaperExample) {
  std::vector<TypeId> keys;
  for (TypeId t = 0; t < prepared_->schema().num_types(); ++t) {
    keys.push_back(t);
  }
  const Preview every = EveryCandidatePreview(*prepared_, keys);
  for (const size_t rows : {size_t{1}, size_t{3}, size_t{100}}) {
    SCOPED_TRACE(rows);
    ExpectCellsMatchEdgeScan(graph_, *prepared_, every, rows,
                             /*has_multiway=*/true);
  }
}

TEST(TupleSamplerFilmTest, CellsMatchEdgeScanOnFilm) {
  GeneratorOptions generator;
  generator.scale = 0.002;
  auto film = GenerateDomainByName("film", generator);
  ASSERT_TRUE(film.ok());
  auto prepared =
      PreparedSchema::Create(film->schema, MeasureSelection{}, &film->graph);
  ASSERT_TRUE(prepared.ok());
  // Every key type, every attribute of each. The generated film schema
  // has no two same-surface attributes on one key type, so merging
  // leaves every column as it is.
  std::vector<TypeId> keys;
  for (TypeId t = 0; t < film->schema.num_types(); ++t) keys.push_back(t);
  const Preview every = EveryCandidatePreview(*prepared, keys);
  for (const size_t rows : {size_t{2}, size_t{5}, size_t{40}}) {
    SCOPED_TRACE(rows);
    ExpectCellsMatchEdgeScan(film->graph, *prepared, every, rows,
                             /*has_multiway=*/false);
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

TEST(TupleSamplerMergeTest, MergedCellsAreSortedDistinctUnions) {
  // Key `a` reaches `c` (the smaller id) only through the second
  // relationship type and the doubly typed `d` through both, so a merged
  // cell that concatenated the runs would come out unsorted and with `d`
  // twice.
  EntityGraphBuilder b;
  const TypeId key = b.AddEntityType("A");
  const TypeId left = b.AddEntityType("B");
  const TypeId right = b.AddEntityType("C");
  const RelTypeId to_left = b.AddRelationshipType("r", key, left);
  const RelTypeId to_right = b.AddRelationshipType("r", key, right);
  const EntityId a = b.AddTypedEntity("a", "A");
  const EntityId c = b.AddTypedEntity("c", "C");
  const EntityId bb = b.AddTypedEntity("b", "B");
  const EntityId d = b.AddTypedEntity("d", "B");
  b.AddEntityToType(d, right);
  ASSERT_TRUE(b.AddEdge(a, to_left, bb).ok());
  ASSERT_TRUE(b.AddEdge(a, to_left, d).ok());
  ASSERT_TRUE(b.AddEdge(a, to_right, c).ok());
  ASSERT_TRUE(b.AddEdge(a, to_right, d).ok());
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  auto prepared = PreparedSchema::Create(SchemaGraph::FromEntityGraph(*graph),
                                         MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  Preview preview;
  PreviewTable table;
  table.key = key;
  table.nonkeys = prepared->Candidates(key).sorted;
  preview.tables = {table};
  TupleSamplerOptions options;
  options.merge_multiway_columns = true;
  const auto mat = MaterializePreview(*graph, *prepared, preview, options);
  ASSERT_TRUE(mat.ok());
  ASSERT_EQ(mat->tables[0].columns.size(), 1u);
  ASSERT_EQ(mat->tables[0].rows.size(), 1u);
  EXPECT_EQ(mat->tables[0].rows[0].cells[0].values,
            (std::vector<EntityId>{c, bb, d}));
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
