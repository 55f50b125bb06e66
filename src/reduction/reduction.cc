#include "reduction/reduction.h"

#include "common/strings.h"
#include "core/brute_force.h"
#include "core/candidates.h"

namespace egp {
namespace {

Result<bool> PreviewDecision(const SchemaGraph& schema, uint32_t k,
                             uint32_t n, const DistanceConstraint& distance,
                             double s) {
  // Scores are irrelevant to the proofs (s = 0 casts no requirement);
  // coverage measures on the unit-weight construction suffice.
  EGP_ASSIGN_OR_RETURN(PreparedSchema prepared,
                       PreparedSchema::Create(schema, MeasureSelection{}));
  auto result = BruteForceDiscover(prepared, SizeConstraint{k, n}, distance);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kNotFound) return false;
    return result.status();
  }
  return result->Score(prepared) >= s;
}

}  // namespace

SchemaGraph BuildTightReductionSchema(const SimpleGraph& graph) {
  SchemaGraph schema;
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    schema.AddType(StrFormat("v%zu", v), /*entity_count=*/1);
  }
  for (size_t u = 0; u < graph.num_vertices(); ++u) {
    for (size_t v = u + 1; v < graph.num_vertices(); ++v) {
      if (graph.HasEdge(u, v)) {
        schema.AddEdge("gamma", static_cast<TypeId>(u),
                       static_cast<TypeId>(v), /*edge_count=*/1);
      }
    }
  }
  return schema;
}

SchemaGraph BuildDiverseReductionSchema(const SimpleGraph& graph) {
  SchemaGraph schema;
  const TypeId hub = schema.AddType("tau0", /*entity_count=*/1);
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    schema.AddType(StrFormat("v%zu", v), /*entity_count=*/1);
  }
  // Complement edges among the original vertices.
  for (size_t u = 0; u < graph.num_vertices(); ++u) {
    for (size_t v = u + 1; v < graph.num_vertices(); ++v) {
      if (!graph.HasEdge(u, v)) {
        schema.AddEdge("gamma", static_cast<TypeId>(u + 1),
                       static_cast<TypeId>(v + 1), /*edge_count=*/1);
      }
    }
  }
  // Hub adjacent to every other vertex.
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    schema.AddEdge("gamma", hub, static_cast<TypeId>(v + 1),
                   /*edge_count=*/1);
  }
  return schema;
}

Result<bool> TightPreviewDecision(const SchemaGraph& schema, uint32_t k,
                                  uint32_t n, uint32_t d, double s) {
  return PreviewDecision(schema, k, n, DistanceConstraint::Tight(d), s);
}

Result<bool> DiversePreviewDecision(const SchemaGraph& schema, uint32_t k,
                                    uint32_t n, uint32_t d, double s) {
  return PreviewDecision(schema, k, n, DistanceConstraint::Diverse(d), s);
}

}  // namespace egp
