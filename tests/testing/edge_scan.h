// Test helper: adjacency computed from the edge array alone.
//
// The library reads neighbour sets out of the graph's CSR
// (EntityGraph::csr()). Tests that check those reads need an oracle that
// does not go through the CSR; this one scans graph.edges() once.
#ifndef EGP_TESTS_TESTING_EDGE_SCAN_H_
#define EGP_TESTS_TESTING_EDGE_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <map>
#include <tuple>
#include <vector>

#include "graph/entity_graph.h"

namespace egp {
namespace testing_util {

/// Sτ_cov(γ): the number of data edges of relationship type `rel_type`.
inline size_t RelTypeEdgeCount(const EntityGraph& graph, RelTypeId rel_type) {
  return static_cast<size_t>(std::count_if(
      graph.edges().begin(), graph.edges().end(),
      [rel_type](const EdgeRecord& e) { return e.rel_type == rel_type; }));
}

class EdgeScanAdjacency {
 public:
  explicit EdgeScanAdjacency(const EntityGraph& graph) {
    for (const EdgeRecord& edge : graph.edges()) {
      sets_[{edge.src, edge.rel_type, Direction::kOutgoing}].push_back(
          edge.dst);
      sets_[{edge.dst, edge.rel_type, Direction::kIncoming}].push_back(
          edge.src);
    }
    for (auto& [key, values] : sets_) {
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
    }
  }

  /// t.γ of `entity` through `rel_type` in `direction`: sorted, distinct.
  std::vector<EntityId> NeighborSet(EntityId entity, RelTypeId rel_type,
                                    Direction direction) const {
    const auto it = sets_.find({entity, rel_type, direction});
    return it == sets_.end() ? std::vector<EntityId>{} : it->second;
  }

  /// The union of NeighborSet over `rel_types`: sorted, distinct.
  std::vector<EntityId> UnionSet(EntityId entity,
                                 const std::vector<RelTypeId>& rel_types,
                                 Direction direction) const {
    std::vector<EntityId> values;
    for (RelTypeId rel : rel_types) {
      const std::vector<EntityId> part = NeighborSet(entity, rel, direction);
      values.insert(values.end(), part.begin(), part.end());
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values;
  }

 private:
  std::map<std::tuple<EntityId, RelTypeId, Direction>, std::vector<EntityId>>
      sets_;
};

}  // namespace testing_util
}  // namespace egp

#endif  // EGP_TESTS_TESTING_EDGE_SCAN_H_
