#include "core/preview.h"

#include <gtest/gtest.h>

#include "datagen/paper_example.h"

namespace egp {
namespace {

class PreviewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    schema_ = SchemaGraph::FromEntityGraph(graph_);
    auto prepared = PreparedSchema::Create(schema_, MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
  }

  TypeId Type(std::string_view name) const {
    auto id = prepared_->schema().type_names().Find(name);
    EXPECT_TRUE(id.has_value()) << name;
    return *id;
  }

  NonKeyCandidate Candidate(TypeId key, size_t rank) const {
    return prepared_->Candidates(key).sorted[rank];
  }

  EntityGraph graph_;
  SchemaGraph schema_;
  std::unique_ptr<PreparedSchema> prepared_;
};

TEST_F(PreviewTest, TableScoreIsEq2) {
  PreviewTable table;
  table.key = Type("FILM");
  table.nonkeys = {Candidate(table.key, 0), Candidate(table.key, 1)};
  // S(FILM) × (Actor + Genres) = 4 × 11 = 44.
  EXPECT_DOUBLE_EQ(table.Score(*prepared_), 44.0);
}

TEST_F(PreviewTest, PreviewScoreIsSumOfTables) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");
  film.nonkeys = {Candidate(film.key, 0)};
  PreviewTable actor;
  actor.key = Type("FILM ACTOR");
  actor.nonkeys = {Candidate(actor.key, 0)};
  preview.tables = {film, actor};
  EXPECT_DOUBLE_EQ(preview.Score(*prepared_),
                   film.Score(*prepared_) + actor.Score(*prepared_));
  EXPECT_EQ(preview.TotalNonKeys(), 2u);
}

TEST_F(PreviewTest, ValidPreviewPasses) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");
  film.nonkeys = {Candidate(film.key, 0), Candidate(film.key, 1)};
  PreviewTable actor;
  actor.key = Type("FILM ACTOR");
  actor.nonkeys = {Candidate(actor.key, 0)};
  preview.tables = {film, actor};
  EXPECT_TRUE(ValidatePreview(preview, *prepared_, SizeConstraint{2, 6},
                              DistanceConstraint::None())
                  .ok());
}

TEST_F(PreviewTest, RejectsWrongTableCount) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");
  film.nonkeys = {Candidate(film.key, 0)};
  preview.tables = {film};
  const Status status = ValidatePreview(preview, *prepared_,
                                        SizeConstraint{2, 6},
                                        DistanceConstraint::None());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PreviewTest, RejectsTooManyNonKeys) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");
  for (size_t i = 0; i < 5; ++i) film.nonkeys.push_back(Candidate(film.key, i));
  preview.tables = {film};
  const Status status = ValidatePreview(preview, *prepared_,
                                        SizeConstraint{1, 3},
                                        DistanceConstraint::None());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PreviewTest, RejectsDuplicateKeys) {
  Preview preview;
  PreviewTable a, b;
  a.key = b.key = Type("FILM");
  a.nonkeys = {Candidate(a.key, 0)};
  b.nonkeys = {Candidate(b.key, 1)};
  preview.tables = {a, b};
  EXPECT_FALSE(ValidatePreview(preview, *prepared_, SizeConstraint{2, 6},
                               DistanceConstraint::None())
                   .ok());
}

TEST_F(PreviewTest, RejectsEmptyTable) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");  // Def. 1: at least one non-key attribute
  preview.tables = {film};
  EXPECT_FALSE(ValidatePreview(preview, *prepared_, SizeConstraint{1, 3},
                               DistanceConstraint::None())
                   .ok());
}

TEST_F(PreviewTest, RejectsForeignNonKey) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");
  film.nonkeys = {Candidate(Type("AWARD"), 0)};  // not incident on FILM
  preview.tables = {film};
  EXPECT_FALSE(ValidatePreview(preview, *prepared_, SizeConstraint{1, 3},
                               DistanceConstraint::None())
                   .ok());
}

TEST_F(PreviewTest, RejectsDuplicateNonKey) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");
  film.nonkeys = {Candidate(film.key, 0), Candidate(film.key, 0)};
  preview.tables = {film};
  EXPECT_FALSE(ValidatePreview(preview, *prepared_, SizeConstraint{1, 3},
                               DistanceConstraint::None())
                   .ok());
}

TEST_F(PreviewTest, EnforcesTightDistance) {
  Preview preview;
  PreviewTable film, award;
  film.key = Type("FILM");
  film.nonkeys = {Candidate(film.key, 0)};
  award.key = Type("AWARD");
  award.nonkeys = {Candidate(award.key, 0)};
  preview.tables = {film, award};
  // dist(FILM, AWARD) = 2: fails tight d=1, passes tight d=2 and diverse
  // d=2.
  EXPECT_FALSE(ValidatePreview(preview, *prepared_, SizeConstraint{2, 6},
                               DistanceConstraint::Tight(1))
                   .ok());
  EXPECT_TRUE(ValidatePreview(preview, *prepared_, SizeConstraint{2, 6},
                              DistanceConstraint::Tight(2))
                  .ok());
  EXPECT_TRUE(ValidatePreview(preview, *prepared_, SizeConstraint{2, 6},
                              DistanceConstraint::Diverse(2))
                  .ok());
  EXPECT_FALSE(ValidatePreview(preview, *prepared_, SizeConstraint{2, 6},
                               DistanceConstraint::Diverse(3))
                   .ok());
}

TEST_F(PreviewTest, KeysSorted) {
  Preview preview;
  PreviewTable a, b;
  a.key = Type("FILM GENRE");
  a.nonkeys = {Candidate(a.key, 0)};
  b.key = Type("FILM");
  b.nonkeys = {Candidate(b.key, 0)};
  preview.tables = {a, b};
  const auto keys = preview.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_LE(keys[0], keys[1]);
}

TEST_F(PreviewTest, DescribeMentionsNames) {
  Preview preview;
  PreviewTable film;
  film.key = Type("FILM");
  film.nonkeys = {Candidate(film.key, 0)};
  preview.tables = {film};
  const std::string text = DescribePreview(preview, *prepared_);
  EXPECT_NE(text.find("FILM"), std::string::npos);
  EXPECT_NE(text.find("Actor"), std::string::npos);
}

TEST(DistanceConstraintTest, UnreachablePairs) {
  // Unreachable pairs fail tight and satisfy diverse constraints.
  const uint32_t inf = SchemaDistanceMatrix::kUnreachable;
  EXPECT_FALSE(DistanceConstraint::Tight(5).SatisfiedBy(inf));
  EXPECT_TRUE(DistanceConstraint::Diverse(5).SatisfiedBy(inf));
  EXPECT_TRUE(DistanceConstraint::None().SatisfiedBy(inf));
}

TEST(DistanceConstraintTest, Boundaries) {
  EXPECT_TRUE(DistanceConstraint::Tight(2).SatisfiedBy(2));
  EXPECT_FALSE(DistanceConstraint::Tight(2).SatisfiedBy(3));
  EXPECT_TRUE(DistanceConstraint::Diverse(2).SatisfiedBy(2));
  EXPECT_FALSE(DistanceConstraint::Diverse(2).SatisfiedBy(1));
}

}  // namespace
}  // namespace egp
