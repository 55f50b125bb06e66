// Byte-identity gate for the JSON the preview server renders.
//
// Every body below goes through the real request path
// (PreviewService::Handle: parse, engine, sampling, render) and is
// compared byte for byte against testdata/preview_golden.jsonl, with the
// wall-clock "timings" member stripped. The matrix covers the sample
// graph and a generated film graph across {dp, apriori, beam} x
// {no distance, tight 2} x rows {0, 3} x {random, frequency} x
// merge {off, on}, a graph whose names need escaping, suggest and error
// bodies, and one access-log line.
//
// A renderer change that alters a single byte fails here. Regenerate the
// file only for an intended output change:
//   EGP_UPDATE_GOLDEN=1 ./io_preview_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "io/ntriples.h"
#include "server/access_log.h"
#include "server/api.h"
#include "server/http.h"
#include "tests/testing/escape_graph.h"

namespace egp {
namespace {

using std::string_view_literals::operator""sv;

const char kGoldenPath[] = EGP_TESTDATA_DIR "/preview_golden.jsonl";

PreviewService MakeService() {
  std::vector<std::pair<std::string, Engine>> engines;
  auto sample = ReadNTriplesFile(EGP_SAMPLE_NT);
  EXPECT_TRUE(sample.ok()) << sample.status().ToString();
  engines.emplace_back("sample", Engine::FromGraph(std::move(sample).value()));
  GeneratorOptions options;
  options.scale = 0.01;
  options.seed = 7;
  auto film = GenerateDomainByName("film", options);
  EXPECT_TRUE(film.ok()) << film.status().ToString();
  engines.emplace_back("film", Engine::FromGraph(std::move(film->graph)));
  engines.emplace_back("escapes",
                       Engine::FromGraph(testing_util::BuildEscapeGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  return PreviewService(std::move(catalog).value(), "golden");
}

/// Drops the top-level "timings" member, the only wall-clock output of a
/// preview body. It is always the last member.
std::string StripTimings(const std::string& body) {
  const size_t at = body.find(",\"timings\":");
  if (at == std::string::npos) return body;
  return body.substr(0, at) + "}";
}

/// One golden line: {"case":...,"status":...,"body":<body>}.
std::string Line(const std::string& name, int status,
                 const std::string& body) {
  return "{\"case\":\"" + name + "\",\"status\":" + std::to_string(status) +
         ",\"body\":" + body + "}";
}

std::vector<std::string> RenderGoldenLines() {
  PreviewService service = MakeService();
  std::vector<std::string> lines;
  const auto serve = [&](const std::string& name, const char* method,
                         const char* target, const std::string& body) {
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    const HttpResponse response = service.Handle(request);
    lines.push_back(Line(name, response.status, StripTimings(response.body)));
  };

  for (const char* dataset : {"sample", "film"}) {
    for (const char* algorithm : {"dp", "apriori", "beam"}) {
      for (const bool tight : {false, true}) {
        for (const int rows : {0, 3}) {
          for (const char* strategy : {"random", "frequency"}) {
            for (const bool merge : {false, true}) {
              std::string body = std::string("{\"dataset\":\"") + dataset +
                                 "\",\"k\":3,\"n\":8,\"algorithm\":\"" +
                                 algorithm + "\"";
              if (tight) body += ",\"tight\":2";
              body += ",\"sample\":{\"rows\":" + std::to_string(rows) +
                      ",\"seed\":7,\"strategy\":\"" + strategy +
                      "\",\"mergeMultiway\":" + (merge ? "true" : "false") +
                      "}}";
              std::string name = std::string(dataset) + " " + algorithm +
                                 (tight ? " tight2" : " none") + " rows" +
                                 std::to_string(rows) + " " + strategy +
                                 (merge ? " merge" : " nomerge");
              serve(name, "POST", "/v1/preview", body);
            }
          }
        }
      }
    }
  }
  for (const char* strategy : {"random", "frequency"}) {
    serve(std::string("escapes ") + strategy, "POST", "/v1/preview",
          std::string("{\"dataset\":\"escapes\",\"k\":3,\"n\":6,\"sample\":"
                      "{\"rows\":3,\"seed\":3,\"mergeMultiway\":true,"
                      "\"strategy\":\"") +
              strategy + "\"}}");
  }
  serve("suggest film", "POST", "/v1/suggest",
        "{\"dataset\":\"film\",\"budget\":{\"widthChars\":100,"
        "\"heightRows\":30}}");
  serve("error unknown dataset", "POST", "/v1/preview",
        "{\"dataset\":\"no \\\"such\\\"\\u0001 set\"}");
  serve("error malformed body", "POST", "/v1/preview", "{\"k\":");
  lines.push_back(Line("error body", 418,
                       JsonErrorBody(418, "tea\0\x01\"pot\"\\\n\xc3\xa9"sv)));

  RequestTrace trace;
  trace.id = "0123456789abcdef";
  trace.method = "POST";
  trace.path = "/v1/preview?q=\"x\"";
  trace.dataset = "film";
  trace.outcome = "error";
  trace.status = 400;
  trace.cache_hit = true;
  trace.bytes_in = 123;
  trace.bytes_out = 4567;
  // Phase values exercise the number formatter: sub-microsecond,
  // zero, and >= 1e8 ms.
  trace.PhaseNs(TracePhase::kRead) = 12'500;
  trace.PhaseNs(TracePhase::kQueue) = 0;
  trace.PhaseNs(TracePhase::kAdmission) = 300'000;
  trace.PhaseNs(TracePhase::kHandler) = 1'234'568;
  trace.PhaseNs(TracePhase::kPrepare) = 100;
  trace.PhaseNs(TracePhase::kDiscover) = 987'654;
  trace.PhaseNs(TracePhase::kSample) = 123'456'789'000'000'000;
  trace.PhaseNs(TracePhase::kRender) = 45'678;
  trace.PhaseNs(TracePhase::kSerialize) = 7;
  trace.PhaseNs(TracePhase::kFlush) = 2'500'000;
  trace.total_seconds = 12.345678901;
  trace.build.key_seconds = 1.0 / 3.0;
  trace.build.nonkey_seconds = 2.0 / 3.0;
  trace.build.distance_seconds = 1e-300;
  trace.build.candidate_sort_seconds = 4.2;
  lines.push_back(
      Line("access log line", 400, RequestTraceToJson(trace, "warning")));
  return lines;
}

TEST(PreviewGoldenTest, BodiesMatchCheckedInGolden) {
  const std::vector<std::string> lines = RenderGoldenLines();
  if (std::getenv("EGP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
    ASSERT_TRUE(out.good()) << kGoldenPath;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "golden line " << i + 1;
  }
}

}  // namespace
}  // namespace egp
