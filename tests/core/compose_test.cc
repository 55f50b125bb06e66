#include "core/compose.h"

#include <gtest/gtest.h>

#include <queue>

#include "common/rng.h"
#include "datagen/paper_example.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

class ComposeTest : public ::testing::Test {
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

TEST_F(ComposeTest, PaperConciseExampleScores84) {
  // §4's example: optimal concise preview with k=2, n=6 over
  // {FILM, FILM ACTOR} scores 4·(6+5+4+2) + 2·(6+2) = 84.
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("FILM ACTOR")}, 6);
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
  EXPECT_EQ(preview->TotalNonKeys(), 6u);
}

TEST_F(ComposeTest, PaperDiverseExampleScores78) {
  // §4's diverse example {FILM×5, AWARD×1}: 4·18 + 3·2 = 78.
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("AWARD")}, 6);
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 78.0);
  // FILM takes 5 attributes (all of Γ_FILM), AWARD 1.
  EXPECT_EQ(preview->tables[0].nonkeys.size(), 5u);
  EXPECT_EQ(preview->tables[1].nonkeys.size(), 1u);
}

TEST_F(ComposeTest, ScoreOnlyMatchesMaterialized) {
  const std::vector<std::vector<TypeId>> key_sets = {
      {Type("FILM")},
      {Type("FILM"), Type("AWARD")},
      {Type("FILM ACTOR"), Type("FILM DIRECTOR")},
      {Type("FILM"), Type("FILM ACTOR"), Type("FILM GENRE")},
  };
  for (const auto& keys : key_sets) {
    for (uint32_t n : {2u, 4u, 6u, 9u}) {
      if (n < keys.size()) continue;
      const auto preview = ComposePreview(*prepared_, keys, n);
      ASSERT_TRUE(preview.ok());
      EXPECT_NEAR(ComposePreviewScore(*prepared_, keys, n),
                  preview->Score(*prepared_), 1e-9);
    }
  }
}

TEST_F(ComposeTest, EveryTableGetsItsTopCandidate) {
  // Theorem 3 / Alg. 1 line 8: the best candidate of each key is always
  // included.
  const auto preview = ComposePreview(
      *prepared_, {Type("FILM"), Type("FILM ACTOR"), Type("AWARD")}, 3);
  ASSERT_TRUE(preview.ok());
  for (const PreviewTable& table : preview->tables) {
    ASSERT_EQ(table.nonkeys.size(), 1u);
    const NonKeyCandidate& top = prepared_->Candidates(table.key).sorted[0];
    EXPECT_EQ(table.nonkeys[0].schema_edge, top.schema_edge);
    EXPECT_EQ(table.nonkeys[0].direction, top.direction);
  }
}

TEST_F(ComposeTest, RemainingSlotsMaximizeWeightedGain) {
  // With k=2 and n=3 over {FILM, FILM PRODUCER}: the third slot should go
  // to FILM (weight 4) over FILM PRODUCER (weight 1).
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("FILM PRODUCER")}, 3);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->tables[0].nonkeys.size(), 2u);
  EXPECT_EQ(preview->tables[1].nonkeys.size(), 1u);
}

TEST_F(ComposeTest, CapsAtAvailableCandidates) {
  // AWARD has only 2 candidates; asking for many slots keeps the preview
  // feasible with fewer non-keys than n.
  const auto preview = ComposePreview(*prepared_, {Type("AWARD")}, 10);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->TotalNonKeys(), 2u);
}

TEST_F(ComposeTest, ErrorWhenNLessThanK) {
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("AWARD")}, 1);
  EXPECT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kInvalidArgument);
  EXPECT_LT(ComposePreviewScore(*prepared_, {Type("FILM"), Type("AWARD")}, 1),
            0.0);
}

TEST_F(ComposeTest, ErrorOnEmptyKeys) {
  EXPECT_FALSE(ComposePreview(*prepared_, {}, 3).ok());
}

TEST_F(ComposeTest, ErrorWhenTypeHasNoCandidates) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("ISOLATED", 1);
  schema.AddType("B", 1);
  schema.AddEdge("r", 0, 2, 1);
  auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  const auto preview = ComposePreview(*prepared, {0, 1}, 4);
  EXPECT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ComposeTest, ExhaustiveCrossCheckOnSmallInstance) {
  // Brute-force all ways to split n attributes over two fixed keys and
  // verify the greedy merge is optimal.
  const std::vector<TypeId> keys = {Type("FILM"), Type("FILM ACTOR")};
  const uint32_t n = 4;
  double best = -1.0;
  const TypeCandidates& c0 = prepared_->Candidates(keys[0]);
  const TypeCandidates& c1 = prepared_->Candidates(keys[1]);
  for (uint32_t m0 = 1; m0 < n; ++m0) {
    const uint32_t m1 = n - m0;
    if (m0 > c0.size() || m1 > c1.size()) continue;
    const double score = prepared_->KeyScore(keys[0]) * c0.TopSum(m0) +
                         prepared_->KeyScore(keys[1]) * c1.TopSum(m1);
    best = std::max(best, score);
  }
  EXPECT_NEAR(ComposePreviewScore(*prepared_, keys, n), best, 1e-9);
}

// The max-heap merge ComposePreview used before its cursors became a fixed
// array: the reference the allocation-free merge must match bit for bit.
struct ReferenceCursor {
  size_t table_index;
  TypeId type;
  size_t next;
  double weighted;

  bool operator<(const ReferenceCursor& other) const {
    if (weighted != other.weighted) return weighted < other.weighted;
    if (type != other.type) return type > other.type;
    return next > other.next;
  }
};

/// Score and per-table non-key counts of the heap merge; score < 0 when
/// infeasible.
struct ReferenceResult {
  double score = -1.0;
  std::vector<size_t> nonkeys;
};

ReferenceResult ReferenceCompose(const PreparedSchema& prepared,
                                 const std::vector<TypeId>& keys,
                                 uint32_t n) {
  const uint32_t k = static_cast<uint32_t>(keys.size());
  ReferenceResult result;
  if (k == 0 || n < k) return result;
  double score = 0.0;
  std::vector<size_t> nonkeys(k, 1);
  std::priority_queue<ReferenceCursor> heap;
  for (uint32_t i = 0; i < k; ++i) {
    const TypeId t = keys[i];
    const TypeCandidates& cands = prepared.Candidates(t);
    if (cands.sorted.empty()) return result;
    score += prepared.KeyScore(t) * cands.sorted[0].score;
    if (cands.sorted.size() > 1) {
      heap.push(ReferenceCursor{i, t, 1,
                                prepared.KeyScore(t) * cands.sorted[1].score});
    }
  }
  for (uint32_t slot = 0; slot < n - k && !heap.empty(); ++slot) {
    ReferenceCursor top = heap.top();
    heap.pop();
    score += top.weighted;
    ++nonkeys[top.table_index];
    const TypeCandidates& cands = prepared.Candidates(top.type);
    const size_t next = top.next + 1;
    if (next < cands.sorted.size()) {
      heap.push(ReferenceCursor{
          top.table_index, top.type, next,
          prepared.KeyScore(top.type) * cands.sorted[next].score});
    }
  }
  result.score = score;
  result.nonkeys = std::move(nonkeys);
  return result;
}

TEST(ComposeOracleTest, BitIdenticalToHeapMerge) {
  const uint32_t max_k = static_cast<uint32_t>(kComposeInlineKeys) + 3;
  size_t compared = 0;
  size_t single_candidate_sets = 0;
  size_t spilled = 0;  // key sets past the inline cursor capacity
  for (uint64_t seed = 500; seed < 530; ++seed) {
    // Sparse schemas: many types end up with a single candidate. Coverage
    // scores tie often (exercising the tie-break); random-walk key scores
    // are inexact, so a changed addition order would change the bits.
    const SchemaGraph schema =
        testing_util::RandomSchemaGraph(seed, 18, 14 + seed % 12);
    MeasureSelection measures;
    if (seed % 2 == 1) measures.key = "randomwalk";
    auto prepared = PreparedSchema::Create(schema, measures);
    ASSERT_TRUE(prepared.ok());
    std::vector<TypeId> eligible;
    for (TypeId t = 0; t < prepared->num_types(); ++t) {
      if (prepared->Eligible(t)) eligible.push_back(t);
    }
    const uint32_t total =
        static_cast<uint32_t>(prepared->TotalCandidates());
    Rng rng(seed);
    for (uint32_t k = 1; k <= max_k && k <= eligible.size(); ++k) {
      // Keys in random order: the top-1s are summed in key order.
      std::vector<TypeId> keys = eligible;
      rng.Shuffle(&keys);
      keys.resize(k);
      for (TypeId t : keys) {
        if (prepared->Candidates(t).size() == 1) {
          ++single_candidate_sets;
          break;
        }
      }
      for (uint32_t n = k; n <= total + 2; ++n) {
        const ReferenceResult expected = ReferenceCompose(*prepared, keys, n);
        EXPECT_EQ(ComposePreviewScore(*prepared, keys, n), expected.score)
            << "seed=" << seed << " k=" << k << " n=" << n;
        const auto preview = ComposePreview(*prepared, keys, n);
        ASSERT_TRUE(preview.ok());
        ASSERT_EQ(preview->tables.size(), k);
        for (uint32_t i = 0; i < k; ++i) {
          EXPECT_EQ(preview->tables[i].key, keys[i]);
          EXPECT_EQ(preview->tables[i].nonkeys.size(), expected.nonkeys[i])
              << "seed=" << seed << " k=" << k << " n=" << n << " i=" << i;
        }
        ++compared;
        if (k > kComposeInlineKeys) ++spilled;
      }
    }
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(single_candidate_sets, 0u);
  EXPECT_GT(spilled, 0u);
}

TEST(ComposeOracleTest, InfeasibleMatchesHeapMerge) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("ISOLATED", 1);
  schema.AddType("B", 1);
  schema.AddEdge("r", 0, 2, 1);
  auto prepared = PreparedSchema::Create(schema, MeasureSelection{});
  ASSERT_TRUE(prepared.ok());
  for (const std::vector<TypeId>& keys :
       {std::vector<TypeId>{}, std::vector<TypeId>{0, 1},
        std::vector<TypeId>{1}, std::vector<TypeId>{0, 2}}) {
    for (uint32_t n = 0; n <= 4; ++n) {
      EXPECT_EQ(ComposePreviewScore(*prepared, keys, n),
                ReferenceCompose(*prepared, keys, n).score);
    }
  }
}

}  // namespace
}  // namespace egp
