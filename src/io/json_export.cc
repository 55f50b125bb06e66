#include "io/json_export.h"

namespace egp {

void WritePreviewJson(const PreparedSchema& prepared, const Preview& preview,
                      JsonWriter* out) {
  const SchemaGraph& schema = prepared.schema();
  out->BeginObject().Key("score").Number(preview.Score(prepared));
  out->Key("tables").BeginArray();
  for (const PreviewTable& table : preview.tables) {
    out->BeginObject().Key("key").String(schema.TypeName(table.key));
    out->Key("keyScore").Number(prepared.KeyScore(table.key));
    out->Key("nonkeys").BeginArray();
    for (const NonKeyCandidate& c : table.nonkeys) {
      const SchemaEdge& e = schema.Edge(c.schema_edge);
      const TypeId other = c.direction == Direction::kOutgoing ? e.dst : e.src;
      out->BeginObject().Key("name").String(schema.SurfaceName(e));
      out->Key("direction").String(DirectionName(c.direction));
      out->Key("target").String(schema.TypeName(other));
      out->Key("score").Number(c.score).EndObject();
    }
    out->EndArray().EndObject();
  }
  out->EndArray().EndObject();
}

std::string PreviewToJson(const PreparedSchema& prepared,
                          const Preview& preview) {
  std::string out;
  JsonWriter writer(&out);
  WritePreviewJson(prepared, preview, &writer);
  return out;
}

void WriteMaterializedPreviewJson(const EntityGraph& graph,
                                  const MaterializedPreview& preview,
                                  JsonWriter* out) {
  out->BeginObject().Key("tables").BeginArray();
  for (const MaterializedTable& table : preview.tables) {
    out->BeginObject().Key("key").String(table.key_name);
    out->Key("totalTuples").Uint(table.total_tuples);
    out->Key("columns").BeginArray();
    for (const MaterializedColumn& column : table.columns) {
      out->BeginObject().Key("name").String(column.name);
      out->Key("direction").String(DirectionName(column.direction));
      out->Key("target").String(column.target).EndObject();
    }
    out->EndArray().Key("rows").BeginArray();
    for (const MaterializedRow& row : table.rows) {
      out->BeginObject().Key("key").String(graph.EntityName(row.key));
      out->Key("cells").BeginArray();
      for (const MaterializedCell& cell : row.cells) {
        out->BeginArray();
        for (const EntityId value : cell.values) {
          out->String(graph.EntityName(value));
        }
        out->EndArray();
      }
      out->EndArray().EndObject();
    }
    out->EndArray().EndObject();
  }
  out->EndArray().EndObject();
}

std::string MaterializedPreviewToJson(const EntityGraph& graph,
                                      const MaterializedPreview& preview) {
  std::string out;
  JsonWriter writer(&out);
  WriteMaterializedPreviewJson(graph, preview, &writer);
  return out;
}

}  // namespace egp
