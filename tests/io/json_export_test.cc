#include "io/json_export.h"

#include <gtest/gtest.h>

#include "core/discover.h"
#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"

namespace egp {
namespace {

class JsonExportTest : public ::testing::Test {
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

TEST_F(JsonExportTest, PreviewJsonStructure) {
  const std::string json = PreviewToJson(*prepared_, preview_);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"score\":84"), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"FILM\""), std::string::npos);
  EXPECT_NE(json.find("\"direction\":\"in\""), std::string::npos);
  EXPECT_NE(json.find("\"keyScore\":4"), std::string::npos);
}

TEST_F(JsonExportTest, MaterializedJsonContainsTuples) {
  auto mat = MaterializePreview(graph_, *prepared_, preview_);
  ASSERT_TRUE(mat.ok());
  const std::string json = MaterializedPreviewToJson(graph_, *mat);
  EXPECT_NE(json.find("\"totalTuples\":4"), std::string::npos);
  EXPECT_NE(json.find("Men in Black"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":["), std::string::npos);
  EXPECT_NE(json.find("\"cells\":[["), std::string::npos);
}

TEST_F(JsonExportTest, BalancedBracketsAndQuotes) {
  auto mat = MaterializePreview(graph_, *prepared_, preview_);
  ASSERT_TRUE(mat.ok());
  for (const std::string& json :
       {PreviewToJson(*prepared_, preview_),
        MaterializedPreviewToJson(graph_, *mat)}) {
    int braces = 0, brackets = 0, quotes = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
      const char c = json[i];
      if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
        in_string = !in_string;
        ++quotes;
      }
      if (in_string) continue;
      if (c == '{') ++braces;
      if (c == '}') --braces;
      if (c == '[') ++brackets;
      if (c == ']') --brackets;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_EQ(quotes % 2, 0);
    EXPECT_FALSE(in_string);
  }
}

TEST_F(JsonExportTest, DeterministicOutput) {
  const std::string a = PreviewToJson(*prepared_, preview_);
  const std::string b = PreviewToJson(*prepared_, preview_);
  EXPECT_EQ(a, b);
}

TEST(JsonExportEdgeTest, EscapableEntityNames) {
  EntityGraphBuilder b;
  const TypeId t = b.AddEntityType("TYPE \"QUOTED\"");
  const TypeId u = b.AddEntityType("OTHER");
  const RelTypeId rel = b.AddRelationshipType("has\ttab", t, u);
  const EntityId e1 = b.AddEntity("entity\nnewline");
  const EntityId e2 = b.AddEntity("back\\slash");
  b.AddEntityToType(e1, t);
  b.AddEntityToType(e2, u);
  ASSERT_TRUE(b.AddEdge(e1, rel, e2).ok());
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  auto prepared = PreparedSchema::Create(
      SchemaGraph::FromEntityGraph(*graph), MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  Preview preview;
  PreviewTable table;
  table.key = 0;
  table.nonkeys = {prepared->Candidates(0).sorted[0]};
  preview.tables = {table};
  auto mat = MaterializePreview(*graph, *prepared, preview);
  ASSERT_TRUE(mat.ok());
  const std::string json = MaterializedPreviewToJson(*graph, *mat);
  EXPECT_NE(json.find("entity\\nnewline"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
  EXPECT_EQ(json.find("\nnewline"), std::string::npos);  // raw newline gone
}

}  // namespace
}  // namespace egp
