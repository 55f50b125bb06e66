// Property suite for Propositions 1 and 2 (§4): preview scores are
// monotone in the set of tables, and table scores are monotone in the set
// of non-key attributes.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/preview.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

class MonotonicityTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    schema_ = testing_util::RandomSchemaGraph(GetParam(), 10, 20);
    auto prepared = PreparedSchema::Create(schema_, MeasureSelection{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
  }

  /// Random valid preview over distinct eligible keys.
  Preview RandomPreview(Rng* rng, size_t max_tables) const {
    std::vector<TypeId> eligible;
    for (TypeId t = 0; t < prepared_->num_types(); ++t) {
      if (prepared_->Eligible(t)) eligible.push_back(t);
    }
    rng->Shuffle(&eligible);
    const size_t tables =
        1 + rng->NextBounded(std::min(max_tables, eligible.size()));
    Preview preview;
    for (size_t i = 0; i < tables; ++i) {
      PreviewTable table;
      table.key = eligible[i];
      const TypeCandidates& cands = prepared_->Candidates(table.key);
      const size_t m = 1 + rng->NextBounded(cands.size());
      table.nonkeys.assign(cands.sorted.begin(), cands.sorted.begin() + m);
      preview.tables.push_back(std::move(table));
    }
    return preview;
  }

  SchemaGraph schema_;
  std::unique_ptr<PreparedSchema> prepared_;
};

TEST_P(MonotonicityTest, Proposition1SupersetPreviewScoresAtLeastAsHigh) {
  Rng rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    Preview big = RandomPreview(&rng, 5);
    if (big.tables.size() < 2) continue;
    Preview small = big;
    small.tables.pop_back();  // small ⊂ big
    EXPECT_GE(big.Score(*prepared_), small.Score(*prepared_));
  }
}

TEST_P(MonotonicityTest, Proposition2SupersetTableScoresAtLeastAsHigh) {
  Rng rng(GetParam() * 13 + 2);
  for (int trial = 0; trial < 20; ++trial) {
    Preview preview = RandomPreview(&rng, 1);
    PreviewTable& table = preview.tables[0];
    if (table.nonkeys.size() < 2) continue;
    PreviewTable smaller = table;
    smaller.nonkeys.pop_back();  // same key, subset of attributes
    EXPECT_GE(table.Score(*prepared_), smaller.Score(*prepared_));
  }
}

TEST_P(MonotonicityTest, ScoresAreNonNegative) {
  Rng rng(GetParam() * 31 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const Preview preview = RandomPreview(&rng, 4);
    EXPECT_GE(preview.Score(*prepared_), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace egp
