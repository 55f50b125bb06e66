// ServerMetrics and the Prometheus rendering of metric families.
#include "server/metrics.h"

#include <gtest/gtest.h>

#include <string>

namespace egp {
namespace {

std::string Render(const ServerMetrics& metrics) {
  return RenderMetricFamilies(metrics.Families());
}

TEST(ServerMetricsTest, CountsByEndpointAndStatus) {
  ServerMetrics metrics;
  metrics.RecordRequest("/v1/preview", 200, 1'000'000);
  metrics.RecordRequest("/v1/preview", 200, 2'000'000);
  metrics.RecordRequest("/v1/preview", 400, 100'000);
  metrics.RecordRequest("/healthz", 200, 50'000);
  const std::string text = Render(metrics);
  EXPECT_NE(
      text.find(
          "egp_http_requests_total{endpoint=\"/v1/preview\",status=\"200\"} "
          "2\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find(
          "egp_http_requests_total{endpoint=\"/v1/preview\",status=\"400\"} "
          "1\n"),
      std::string::npos);
  EXPECT_NE(text.find("egp_http_requests_total{endpoint=\"/healthz\","
                      "status=\"200\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("egp_http_request_duration_seconds_count 4\n"),
            std::string::npos);
}

TEST(ServerMetricsTest, PrometheusTextShape) {
  ServerMetrics metrics;
  metrics.RecordRequest("/v1/preview", 200, 1'000'000);
  const std::string text = Render(metrics);
  EXPECT_NE(text.find("# TYPE egp_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "egp_http_requests_total{endpoint=\"/v1/preview\",status=\"200\"} "
          "1"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE egp_http_request_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("egp_http_request_duration_seconds_bucket{le=\"0.001\"} "
                      "1\n"),
            std::string::npos);
  EXPECT_NE(text.find("egp_http_request_duration_seconds_bucket{le=\"0.0005\"} "
                      "0\n"),
            std::string::npos);
  EXPECT_NE(text.find("egp_http_request_duration_seconds_bucket{le=\"+Inf\"} "
                      "1"),
            std::string::npos);
  EXPECT_NE(text.find("egp_http_request_duration_seconds_count 1"),
            std::string::npos);
  // No dataset request yet: the dataset families are not headed.
  EXPECT_EQ(text.find("egp_requests_total"), std::string::npos);
}

TEST(ServerMetricsTest, DatasetSeriesCarryTheirLabel) {
  ServerMetrics metrics;
  metrics.RecordDataset("paper", 200, 50'000);
  const std::string text = Render(metrics);
  EXPECT_NE(text.find("egp_requests_total{dataset=\"paper\",status=\"200\"} "
                      "1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("egp_dataset_request_duration_seconds_bucket{"
                      "dataset=\"paper\",le=\"5e-05\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("egp_dataset_request_duration_seconds_count{"
                      "dataset=\"paper\"} 1\n"),
            std::string::npos);
}

TEST(RenderMetricFamiliesTest, HeadersThenSeriesInDeclaredOrder) {
  const std::string text = RenderMetricFamilies(
      {{"egp_b", "gauge", "B.", {{"", uint64_t{7}}, {"k=\"v\"", 0.5}}},
       {"egp_a_total", "counter", "A.", {}}});
  EXPECT_EQ(text,
            "# HELP egp_b B.\n# TYPE egp_b gauge\negp_b 7\negp_b{k=\"v\"} 0.5\n"
            "# HELP egp_a_total A.\n# TYPE egp_a_total counter\n");
}

}  // namespace
}  // namespace egp
