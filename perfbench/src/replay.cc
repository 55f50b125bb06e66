#include "replay.h"

#include <chrono>

#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/brute_force.h"
#include "core/dynamic_programming.h"
#include "core/tuple_sampler.h"
#include "helpers.h"
#include "io/json_parser.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PipelineOut {
  std::string json;
  uint64_t subsets = 0;
  uint64_t values = 0;
  bool sampled = false;
};

// Records one span when traced; compiles to nothing otherwise.
template <bool kTraced>
class SpanScope {
 public:
  SpanScope(std::vector<Span>* spans, const char* name, uint64_t request,
            int64_t parent) {
    if constexpr (kTraced) {
      spans_ = spans;
      span_.name = name;
      span_.request = request;
      span_.parent = parent;
      span_.start_ns = NowNs();
    }
  }
  ~SpanScope() {
    if constexpr (kTraced) {
      span_.end_ns = NowNs();
      spans_->push_back(span_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::vector<Span>* spans_ = nullptr;
  Span span_;
};

// The preview path of PreviewService::Handle, rebuilt from each layer's
// public entry point so every layer gets its own span. False on any error.
template <bool kTraced>
bool RunPipeline(const egp::DatasetCatalog& catalog, const std::string& body,
                 std::vector<Span>* spans, uint64_t request, int64_t parent,
                 PipelineOut* out) {
  egp::Result<egp::ParsedPreviewRequest> parsed =
      egp::Status::Internal("unset");
  {
    SpanScope<kTraced> span(spans, "parse", request, parent);
    const auto doc = egp::ParseJson(body);
    if (!doc.ok()) return false;
    parsed = egp::ParsePreviewRequestJson(*doc);
  }
  if (!parsed.ok()) return false;
  const egp::PreviewRequest& request_spec = parsed->request;
  const egp::Engine* engine = catalog.Find(parsed->dataset);
  if (engine == nullptr || request_spec.budget) return false;

  egp::PreviewResponse response;
  {
    SpanScope<kTraced> span(spans, "lookup", request, parent);
    auto prepared = engine->Prepared(request_spec.measures);
    if (!prepared.ok()) return false;
    response.prepared = *prepared;
  }
  const egp::PreparedSchema& prepared = *response.prepared;
  response.size = request_spec.size;
  response.distance = request_spec.distance;
  response.algorithm = request_spec.algorithm;
  if (response.algorithm == "auto") {
    response.algorithm = response.distance.mode == egp::DistanceMode::kNone
                             ? "dp"
                             : "apriori";
  }
  egp::Result<egp::Preview> preview = egp::Status::Internal("unset");
  {
    SpanScope<kTraced> span(spans, "discover", request, parent);
    if (response.algorithm == "dp") {
      preview = egp::DynamicProgrammingDiscover(prepared, response.size);
    } else if (response.algorithm == "apriori") {
      preview = egp::AprioriDiscover(prepared, response.size, response.distance,
                                     egp::AprioriOptions{}, &response.stats);
    } else if (response.algorithm == "beam") {
      preview = egp::BeamSearchDiscover(prepared, response.size,
                                        response.distance,
                                        egp::BeamSearchOptions{},
                                        &response.stats);
    } else {
      preview = egp::BruteForceDiscover(prepared, response.size,
                                        response.distance,
                                        egp::BruteForceOptions{},
                                        &response.stats);
    }
  }
  if (!preview.ok()) return false;
  response.preview = std::move(preview).value();
  response.score = response.preview.Score(prepared);
  out->subsets = response.stats.subsets_enumerated;

  const bool sampled = request_spec.sample_rows > 0;
  out->sampled = sampled;
  if (sampled) {
    egp::TupleSamplerOptions sampler;
    sampler.rows_per_table = request_spec.sample_rows;
    sampler.seed = request_spec.sample_seed;
    sampler.strategy = request_spec.sample_strategy;
    sampler.merge_multiway_columns = request_spec.merge_multiway_columns;
    egp::Result<egp::MaterializedPreview> materialized =
        egp::Status::Internal("unset");
    {
      SpanScope<kTraced> span(spans, "sample", request, parent);
      materialized = egp::MaterializePreview(*engine->graph(), prepared,
                                             response.preview, sampler);
    }
    if (!materialized.ok()) return false;
    response.materialized = std::move(materialized).value();
    out->values = 0;
    for (const egp::MaterializedTable& table : response.materialized.tables) {
      for (const egp::MaterializedRow& row : table.rows) {
        for (const egp::MaterializedCell& cell : row.cells) {
          out->values += cell.values.size();
        }
      }
    }
  }
  {
    SpanScope<kTraced> span(spans, "render", request, parent);
    out->json = egp::PreviewResponseToJson(*engine, parsed->dataset, response,
                                           sampled);
  }
  return true;
}

// Bounds the spans kept in memory on the fastest workloads.
constexpr uint64_t kMaxTracedRequests = 200000;

double SpanUs(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
}

}  // namespace

ReplayStats Replay(
    egp::PreviewService& service, size_t count,
    const std::function<std::string(uint64_t round, size_t index)>& body_at,
    double budget_seconds) {
  ReplayStats stats;
  const egp::DatasetCatalog& catalog = service.catalog();
  const int64_t begin = NowNs();
  std::vector<Span> unused;  // the untraced pass never writes to it
  for (uint64_t round = 0;
       round < 3 ||
       (static_cast<double>(NowNs() - begin) / 1e9 < budget_seconds &&
        stats.requests < kMaxTracedRequests);
       ++round) {
    std::vector<std::string> bodies(count);
    for (size_t i = 0; i < count; ++i) bodies[i] = body_at(round, i);
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (round % 2 == 0);
      for (size_t i = 0; i < count; ++i) {
        const uint64_t request = round * count + i;
        egp::HttpRequest http;
        http.method = "POST";
        http.target = "/v1/preview";
        http.body = bodies[i];
        const int64_t handle_begin = NowNs();
        const egp::HttpResponse handled = service.Handle(http);
        const int64_t handle_end = NowNs();

        PipelineOut out;
        bool ok = false;
        const int64_t pipeline_begin = NowNs();
        if (traced) {
          const size_t first_child = stats.spans.size() + 1;
          stats.spans.push_back(
              Span{"handle", request, -1, handle_begin, handle_end});
          const int64_t parent = static_cast<int64_t>(first_child - 1);
          ok = RunPipeline<true>(catalog, bodies[i], &stats.spans, request,
                                 parent, &out);
          stats.traced_seconds +=
              static_cast<double>(NowNs() - pipeline_begin) / 1e9;
          const double handle_us = SpanUs(stats.spans[first_child - 1]);
          double children_us = 0.0;
          for (size_t s = first_child; s < stats.spans.size(); ++s) {
            const Span& span = stats.spans[s];
            const double us = SpanUs(span);
            children_us += us;
            const std::string_view name = span.name;
            if (name == "parse") stats.parse_us.push_back(us);
            if (name == "lookup") stats.lookup_us.push_back(us);
            if (name == "discover") stats.discover_us.push_back(us);
            if (name == "sample") stats.sample_us.push_back(us);
            if (name == "render") stats.render_us.push_back(us);
          }
          stats.handle_us.push_back(handle_us);
          stats.api_self_us.push_back(handle_us - children_us);
          ++stats.requests;
          stats.subsets += out.subsets;
          stats.values += out.values;
          stats.bytes += out.json.size();
          if (out.sampled) ++stats.sampled_requests;
        } else {
          ok = RunPipeline<false>(catalog, bodies[i], &unused, request, -1,
                                  &out);
          stats.untraced_seconds +=
              static_cast<double>(NowNs() - pipeline_begin) / 1e9;
        }
        const auto expected = StripVolatileMembers(handled.body);
        if (!ok || handled.status != 200 || !expected ||
            !BodyMatchesReference(out.json, *expected)) {
          ++stats.mismatches;
        }
      }
    }
  }
  return stats;
}

}  // namespace perfbench
