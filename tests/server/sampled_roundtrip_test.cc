// Sampled preview bodies round-trip through egp's own strict JSON parser.
//
// POST /v1/preview is served through PreviewService::Handle (the server's
// request path minus the socket) with rows 1, 5 and one more than the
// largest type, under both sampling strategies, with multi-way merging
// on and off, on three generated domains and on a graph whose names need
// every JSON escape. Every body must parse under ParseJson, and every
// materialized table must hold min(rows, members) distinct rows in the
// order of its key type's member list.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "datagen/generator.h"
#include "io/json_parser.h"
#include "server/api.h"
#include "server/http.h"
#include "tests/testing/escape_graph.h"

namespace egp {
namespace {

constexpr const char* kGenerated[] = {"basketball", "film", "music"};

PreviewService MakeService() {
  std::vector<std::pair<std::string, Engine>> engines;
  for (const char* name : kGenerated) {
    GeneratorOptions options;
    options.scale = 0.0005;
    options.seed = 5;
    auto domain = GenerateDomainByName(name, options);
    EXPECT_TRUE(domain.ok()) << domain.status().ToString();
    engines.emplace_back(name, Engine::FromGraph(std::move(domain->graph)));
  }
  engines.emplace_back("escapes",
                       Engine::FromGraph(testing_util::BuildEscapeGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  return PreviewService(std::move(catalog).value(), "roundtrip");
}

/// Checks one parsed 200 body's materialized tables against the graph.
void ExpectRowsDistinctAndOrdered(const EntityGraph& graph,
                                  const JsonValue& body, size_t rows) {
  const JsonValue* materialized = body.Find("materialized");
  ASSERT_NE(materialized, nullptr);
  const JsonValue* tables = materialized->Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_FALSE(tables->array().empty());
  for (const JsonValue& table : tables->array()) {
    const auto type =
        graph.type_names().Find(table.Find("key")->string_value());
    ASSERT_TRUE(type.has_value());
    const std::vector<EntityId>& members = graph.EntitiesOfType(*type);
    EXPECT_EQ(table.Find("totalTuples")->number_value(),
              static_cast<double>(members.size()));
    std::unordered_map<EntityId, size_t> position;
    for (size_t i = 0; i < members.size(); ++i) position[members[i]] = i;

    const JsonValue::Array& table_rows = table.Find("rows")->array();
    ASSERT_EQ(table_rows.size(), std::min(rows, members.size()))
        << "table " << graph.TypeName(*type);
    const size_t columns = table.Find("columns")->array().size();
    size_t previous = 0;
    for (size_t r = 0; r < table_rows.size(); ++r) {
      const auto entity =
          graph.entity_names().Find(table_rows[r].Find("key")->string_value());
      ASSERT_TRUE(entity.has_value());
      const auto it = position.find(*entity);
      ASSERT_NE(it, position.end()) << "row is not a member of its key type";
      // Strictly increasing member positions: distinct and ordered.
      if (r > 0) {
        EXPECT_LT(previous, it->second);
      }
      previous = it->second;
      EXPECT_EQ(table_rows[r].Find("cells")->array().size(), columns);
    }
  }
}

TEST(SampledRoundTripTest, BodiesParseAndRowsAreDistinctAndOrdered) {
  PreviewService service = MakeService();
  std::vector<std::string> datasets(std::begin(kGenerated),
                                    std::end(kGenerated));
  datasets.push_back("escapes");
  size_t bodies = 0;
  for (const std::string& dataset : datasets) {
    const EntityGraph& graph = *service.catalog().Find(dataset)->graph();
    size_t largest = 0;
    for (TypeId t = 0; t < graph.num_types(); ++t) {
      largest = std::max(largest, graph.EntitiesOfType(t).size());
    }
    const size_t n = dataset == "escapes" ? 6 : 8;
    for (const size_t rows : {size_t{1}, size_t{5}, largest + 1}) {
      for (const char* strategy : {"random", "frequency"}) {
        for (const bool merge : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << dataset << " rows " << rows << " " << strategy
                       << (merge ? " merge" : " nomerge"));
          HttpRequest request;
          request.method = "POST";
          request.target = "/v1/preview";
          request.body = StrFormat(
              "{\"dataset\":\"%s\",\"k\":3,\"n\":%zu,\"sample\":{"
              "\"rows\":%zu,\"seed\":%zu,\"strategy\":\"%s\","
              "\"mergeMultiway\":%s}}",
              dataset.c_str(), n, rows, rows * 31 + bodies, strategy,
              merge ? "true" : "false");
          const HttpResponse response = service.Handle(request);
          ASSERT_EQ(response.status, 200) << response.body;
          const auto parsed = ParseJson(response.body);
          ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
          ExpectRowsDistinctAndOrdered(graph, *parsed, rows);
          ++bodies;
        }
      }
    }
  }
  EXPECT_EQ(bodies, datasets.size() * 3 * 2 * 2);
}

}  // namespace
}  // namespace egp
