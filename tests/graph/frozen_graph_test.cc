#include "graph/frozen_graph.h"

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "tests/testing/edge_scan.h"

namespace egp {
namespace {

TEST(FrozenGraphTest, ArcCountsMatch) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph frozen = FrozenGraph::Freeze(graph);
  EXPECT_EQ(frozen.num_entities(), graph.num_entities());
  EXPECT_EQ(frozen.num_arcs(), graph.num_edges());
  std::vector<size_t> out(graph.num_entities()), in(graph.num_entities());
  for (const EdgeRecord& edge : graph.edges()) {
    ++out[edge.src];
    ++in[edge.dst];
  }
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    EXPECT_EQ(frozen.OutDegree(e), out[e]);
    EXPECT_EQ(frozen.InDegree(e), in[e]);
  }
}

TEST(FrozenGraphTest, ArcsSortedByRelTypeThenNeighbor) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph frozen = FrozenGraph::Freeze(graph);
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    const auto arcs = frozen.OutArcs(e);
    for (size_t i = 1; i < arcs.size(); ++i) {
      const bool ordered =
          arcs[i - 1].rel_type < arcs[i].rel_type ||
          (arcs[i - 1].rel_type == arcs[i].rel_type &&
           arcs[i - 1].neighbor <= arcs[i].neighbor);
      EXPECT_TRUE(ordered);
    }
  }
}

TEST(FrozenGraphTest, NeighborSetsMatchEdgeScanOnPaperExample) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const testing_util::EdgeScanAdjacency oracle(graph);
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
      for (Direction d : {Direction::kOutgoing, Direction::kIncoming}) {
        EXPECT_EQ(graph.NeighborSet(e, r, d), oracle.NeighborSet(e, r, d))
            << "entity " << e << " rel " << r;
      }
    }
  }
}

TEST(FrozenGraphTest, BuiltGraphCarriesItsFreeze) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph frozen = FrozenGraph::Freeze(graph);
  EXPECT_FALSE(graph.csr().is_view());
  EXPECT_TRUE(std::equal(frozen.out_offsets().begin(),
                         frozen.out_offsets().end(),
                         graph.csr().out_offsets().begin(),
                         graph.csr().out_offsets().end()));
  EXPECT_TRUE(std::equal(frozen.in_offsets().begin(),
                         frozen.in_offsets().end(),
                         graph.csr().in_offsets().begin(),
                         graph.csr().in_offsets().end()));
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
      for (Direction d : {Direction::kOutgoing, Direction::kIncoming}) {
        const auto a = frozen.RelArcs(e, r, d);
        const auto b = graph.csr().RelArcs(e, r, d);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].neighbor, b[i].neighbor);
        }
      }
    }
  }
}

TEST(FrozenGraphTest, NeighborSetsMatchOnGeneratedDomain) {
  GeneratorOptions options;
  options.scale = 0.0003;
  auto domain = GenerateDomainByName("people", options);
  ASSERT_TRUE(domain.ok());
  const testing_util::EdgeScanAdjacency oracle(domain->graph);
  // Spot-check a deterministic sample of (entity, rel type) pairs.
  for (EntityId e = 0; e < domain->graph.num_entities(); e += 97) {
    for (RelTypeId r = 0; r < domain->graph.num_rel_types(); r += 7) {
      for (Direction d : {Direction::kOutgoing, Direction::kIncoming}) {
        EXPECT_EQ(domain->graph.NeighborSet(e, r, d),
                  oracle.NeighborSet(e, r, d));
      }
    }
  }
}

TEST(FrozenGraphTest, MemoryAccountingIsPlausible) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph frozen = FrozenGraph::Freeze(graph);
  // Two arc arrays + two offset arrays; arcs are 8 bytes each.
  const size_t lower_bound =
      2 * graph.num_edges() * sizeof(FrozenGraph::Arc) +
      2 * (graph.num_entities() + 1) * sizeof(uint64_t);
  EXPECT_GE(frozen.MemoryBytes(), lower_bound);
  EXPECT_LT(frozen.MemoryBytes(), 4 * lower_bound);
}

TEST(FrozenGraphTest, EmptyAdjacency) {
  EntityGraphBuilder b;
  b.AddTypedEntity("lonely", "T");
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  const FrozenGraph frozen = FrozenGraph::Freeze(*graph);
  EXPECT_TRUE(frozen.OutArcs(0).empty());
  EXPECT_TRUE(frozen.InArcs(0).empty());
  EXPECT_TRUE(frozen.RelArcs(0, 0, Direction::kOutgoing).empty());
  EXPECT_TRUE(graph->NeighborSet(0, 0, Direction::kOutgoing).empty());
}

}  // namespace
}  // namespace egp
