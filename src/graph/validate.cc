#include "graph/validate.h"

#include <algorithm>
#include <set>
#include <span>

#include "common/strings.h"

namespace egp {
namespace {

/// Whether a neighbor-sorted CSR run holds an arc to `neighbor`.
bool HasArc(std::span<const FrozenGraph::Arc> run, EntityId neighbor) {
  const auto it = std::lower_bound(
      run.begin(), run.end(), neighbor,
      [](const FrozenGraph::Arc& arc, EntityId v) { return arc.neighbor < v; });
  return it != run.end() && it->neighbor == neighbor;
}

}  // namespace

ValidationReport ValidateEntityGraph(const EntityGraph& graph) {
  ValidationReport report;
  auto violate = [&report](std::string message) {
    if (report.violations.size() < 100) {  // cap runaway reports
      report.violations.push_back(std::move(message));
    }
  };

  // Edge endpoint typing + adjacency index membership.
  for (EdgeId id = 0; id < graph.num_edges(); ++id) {
    const EdgeRecord& e = graph.Edge(id);
    if (e.src >= graph.num_entities() || e.dst >= graph.num_entities()) {
      violate(StrFormat("edge %u has out-of-range endpoint", id));
      continue;
    }
    if (e.rel_type >= graph.num_rel_types()) {
      violate(StrFormat("edge %u has out-of-range relationship type", id));
      continue;
    }
    const RelTypeInfo& info = graph.RelType(e.rel_type);
    if (!graph.EntityHasType(e.src, info.src_type)) {
      violate(StrFormat("edge %u: source '%s' lacks type '%s'", id,
                        graph.EntityName(e.src).c_str(),
                        graph.TypeName(info.src_type).c_str()));
    }
    if (!graph.EntityHasType(e.dst, info.dst_type)) {
      violate(StrFormat("edge %u: destination '%s' lacks type '%s'", id,
                        graph.EntityName(e.dst).c_str(),
                        graph.TypeName(info.dst_type).c_str()));
    }
    if (!HasArc(graph.csr().RelArcs(e.src, e.rel_type,
                                    Direction::kOutgoing), e.dst)) {
      violate(StrFormat("edge %u missing from source's out arcs", id));
    }
    if (!HasArc(graph.csr().RelArcs(e.dst, e.rel_type,
                                    Direction::kIncoming), e.src)) {
      violate(StrFormat("edge %u missing from destination's in arcs", id));
    }
  }

  // The CSR holds each edge exactly once per direction.
  if (graph.csr().num_arcs() != graph.num_edges()) {
    violate(StrFormat("CSR holds %zu arcs for %zu edges",
                      graph.csr().num_arcs(), graph.num_edges()));
  }

  // Membership symmetry: TypesOf(v) <-> EntitiesOfType(t).
  for (TypeId t = 0; t < graph.num_types(); ++t) {
    std::set<EntityId> members(graph.EntitiesOfType(t).begin(),
                               graph.EntitiesOfType(t).end());
    if (members.size() != graph.EntitiesOfType(t).size()) {
      violate(StrFormat("type '%s' has duplicate members",
                        graph.TypeName(t).c_str()));
    }
    for (EntityId v : members) {
      if (!graph.EntityHasType(v, t)) {
        violate(StrFormat("entity '%s' in members of '%s' but lacks the "
                          "type",
                          graph.EntityName(v).c_str(),
                          graph.TypeName(t).c_str()));
      }
    }
  }
  for (EntityId v = 0; v < graph.num_entities(); ++v) {
    for (TypeId t : graph.TypesOf(v)) {
      const auto& members = graph.EntitiesOfType(t);
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        violate(StrFormat("entity '%s' has type '%s' but is not in its "
                          "member list",
                          graph.EntityName(v).c_str(),
                          graph.TypeName(t).c_str()));
      }
    }
  }

  // Relationship-type endpoint sanity.
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    const RelTypeInfo& info = graph.RelType(r);
    if (info.src_type >= graph.num_types() ||
        info.dst_type >= graph.num_types()) {
      violate(StrFormat("relationship type %u has out-of-range endpoint "
                        "types",
                        r));
    }
  }
  return report;
}

Status CheckEntityGraph(const EntityGraph& graph) {
  const ValidationReport report = ValidateEntityGraph(graph);
  if (report.ok()) return Status::OK();
  std::string message = StrFormat("%zu violation(s); first: %s",
                                  report.violations.size(),
                                  report.violations.front().c_str());
  return Status::Corruption(std::move(message));
}

}  // namespace egp
