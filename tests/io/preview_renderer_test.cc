#include "io/preview_renderer.h"

#include <gtest/gtest.h>

#include "core/discover.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

class RendererTest : public ::testing::Test {
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
    TupleSamplerOptions sampler;
    sampler.rows_per_table = 4;
    auto mat = MaterializePreview(graph_, *prepared_, *preview, sampler);
    ASSERT_TRUE(mat.ok());
    materialized_ = std::move(mat).value();
  }

  EntityGraph graph_;
  std::unique_ptr<PreparedSchema> prepared_;
  MaterializedPreview materialized_;
};

TEST_F(RendererTest, AsciiContainsKeyTypeAndEntities) {
  const std::string text = RenderPreview(graph_, materialized_);
  EXPECT_NE(text.find("FILM"), std::string::npos);
  EXPECT_NE(text.find("Men in Black"), std::string::npos);
  EXPECT_NE(text.find("+"), std::string::npos);  // table borders
}

TEST_F(RendererTest, KeyAttributeUnderlined) {
  // Fig. 2 marks key attributes with underlines; the ASCII renderer uses
  // a '~' run below the key header.
  const std::string text = RenderTable(graph_, materialized_.tables[0]);
  EXPECT_NE(text.find("~~~~"), std::string::npos);
}

TEST_F(RendererTest, EmptyCellRendersDash) {
  // Hancock has no genres (t3.Genres = "-" in Fig. 2).
  RenderOptions options;
  const std::string text = RenderPreview(graph_, materialized_, options);
  EXPECT_NE(text.find(" - "), std::string::npos);
}

TEST_F(RendererTest, MultiValuedCellUsesBraces) {
  const std::string text = RenderPreview(graph_, materialized_);
  EXPECT_NE(text.find("{"), std::string::npos);
}

TEST_F(RendererTest, MarkdownFormat) {
  RenderOptions options;
  options.format = RenderOptions::Format::kMarkdown;
  const std::string text = RenderPreview(graph_, materialized_, options);
  EXPECT_NE(text.find("| **FILM** |"), std::string::npos);
  EXPECT_NE(text.find("|---|"), std::string::npos);
}

TEST_F(RendererTest, TruncatesLongCells) {
  RenderOptions options;
  options.max_cell_width = 10;
  const std::string text = RenderPreview(graph_, materialized_, options);
  EXPECT_NE(text.find("..."), std::string::npos);
}

TEST_F(RendererTest, MaxValuesPerCellRespected) {
  RenderOptions options;
  options.max_values_per_cell = 1;
  options.max_cell_width = 200;
  const std::string text = RenderPreview(graph_, materialized_, options);
  // A multi-valued cell shows one value then an ellipsis marker.
  EXPECT_NE(text.find(", ...}"), std::string::npos);
}

TEST_F(RendererTest, DirectionAnnotationOptIn) {
  RenderOptions options;
  options.show_direction = true;
  const std::string text = RenderPreview(graph_, materialized_, options);
  EXPECT_NE(text.find("<-"), std::string::npos);
}

TEST_F(RendererTest, SampledRowNoteShown) {
  // When fewer rows than tuples are shown the renderer says so.
  TupleSamplerOptions sampler;
  sampler.rows_per_table = 1;
  auto preview = materialized_;
  auto p = Discover(*prepared_, "auto", SizeConstraint{1, 2},
                    DistanceConstraint::None());
  ASSERT_TRUE(p.ok());
  auto mat = MaterializePreview(graph_, *prepared_, *p, sampler);
  ASSERT_TRUE(mat.ok());
  const std::string text = RenderPreview(graph_, *mat);
  EXPECT_NE(text.find("of 4 tuples shown"), std::string::npos);
}

}  // namespace
}  // namespace egp
