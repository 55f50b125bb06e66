// Test helper: a tiny graph whose type, relationship and entity names
// need every JSON escape class, for byte- and parse-level checks of
// rendered bodies.
#ifndef EGP_TESTS_TESTING_ESCAPE_GRAPH_H_
#define EGP_TESTS_TESTING_ESCAPE_GRAPH_H_

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/entity_graph_builder.h"

namespace egp {
namespace testing_util {

/// Names that exercise every escape class: quote, backslash, named and
/// \u00XX control characters, DEL and multi-byte UTF-8.
inline EntityGraph BuildEscapeGraph() {
  EntityGraphBuilder b;
  const TypeId film = b.AddEntityType("FILM \"quoted\"");
  const TypeId person = b.AddEntityType("PERSON\\path");
  const TypeId place = b.AddEntityType("PLACE \xc3\xa9t\xc3\xa9");
  const RelTypeId directed =
      b.AddRelationshipType("directed\tby", film, person);
  const RelTypeId shot = b.AddRelationshipType("shot\x01in\x1f", film, place);
  const RelTypeId born = b.AddRelationshipType("born\x7fin", person, place);
  const char* films[] = {"Am\xc3\xa9lie", "line\nbreak", "cr\rlf",
                         "\xe6\x97\xa5\xe6\x9c\xac", "bell\x07\x08\x0c"};
  const char* people[] = {"Jean \"JP\" Jeunet", "back\\slash", "tab\there"};
  const char* places[] = {"Paris", "\xf0\x9f\x8e\xac studio"};
  std::vector<EntityId> f, p, l;
  for (const char* name : films) {
    f.push_back(b.AddEntity(name));
    b.AddEntityToType(f.back(), film);
  }
  for (const char* name : people) {
    p.push_back(b.AddEntity(name));
    b.AddEntityToType(p.back(), person);
  }
  for (const char* name : places) {
    l.push_back(b.AddEntity(name));
    b.AddEntityToType(l.back(), place);
  }
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_TRUE(b.AddEdge(f[i], directed, p[i % p.size()]).ok());
    if (i % 2 == 0) {
      EXPECT_TRUE(b.AddEdge(f[i], shot, l[i % l.size()]).ok());
    }
  }
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_TRUE(b.AddEdge(p[i], born, l[i % l.size()]).ok());
  }
  auto graph = b.Build();
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

}  // namespace testing_util
}  // namespace egp

#endif  // EGP_TESTS_TESTING_ESCAPE_GRAPH_H_
