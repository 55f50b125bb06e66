#include "server/metrics.h"

#include "common/strings.h"

namespace egp {
namespace {

void AppendSample(std::string* out, std::string_view name,
                  std::string_view labels, std::string_view value) {
  out->append(name);
  if (!labels.empty()) out->append("{").append(labels).append("}");
  out->append(" ").append(value).append("\n");
}

void AppendSample(std::string* out, std::string_view name,
                  std::string_view labels, uint64_t value) {
  AppendSample(out, name, labels, std::to_string(value));
}

void AppendSample(std::string* out, std::string_view name,
                  std::string_view labels, double value) {
  AppendSample(out, name, labels, StrFormat("%.9g", value));
}

/// The one place a histogram becomes exposition text: `_bucket{le=}`
/// over every bound plus +Inf, then `_sum` and `_count`, each carrying
/// `labels`.
void AppendHistogramSamples(std::string* out, std::string_view name,
                            std::string_view labels,
                            const Histogram::Snapshot& snap) {
  const std::string bucket = std::string(name) + "_bucket";
  const std::string prefix =
      labels.empty() ? std::string() : std::string(labels) + ",";
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::string le =
        i < kHistogramBoundsNanos.size()
            ? StrFormat("%g", static_cast<double>(kHistogramBoundsNanos[i]) /
                                  1e9)
            : "+Inf";
    AppendSample(out, bucket, prefix + "le=\"" + le + "\"",
                 snap.cumulative[i]);
  }
  AppendSample(out, std::string(name) + "_sum", labels, snap.sum_seconds);
  AppendSample(out, std::string(name) + "_count", labels, snap.count());
}

std::string StatusLabels(std::string_view key, const std::string& value,
                         int status) {
  return std::string(key) + "=\"" + value + "\",status=\"" +
         std::to_string(status) + "\"";
}

}  // namespace

std::string RenderMetricFamilies(const std::vector<MetricFamily>& families) {
  std::string out;
  for (const MetricFamily& family : families) {
    out.append("# HELP ").append(family.name).append(" ");
    out.append(family.help).append("\n");
    out.append("# TYPE ").append(family.name).append(" ");
    out.append(family.type).append("\n");
    for (const MetricSeries& series : family.series) {
      if (const auto* snap = std::get_if<Histogram::Snapshot>(&series.value)) {
        AppendHistogramSamples(&out, family.name, series.labels, *snap);
      } else if (const auto* count = std::get_if<uint64_t>(&series.value)) {
        AppendSample(&out, family.name, series.labels, *count);
      } else {
        AppendSample(&out, family.name, series.labels,
                     std::get<double>(series.value));
      }
    }
  }
  return out;
}

void ServerMetrics::RecordRequest(std::string_view endpoint, int status,
                                  int64_t nanos) {
  latency_.Observe(nanos);
  MutexLock lock(&mu_);
  ++counts_[{std::string(endpoint), status}];
}

void ServerMetrics::RecordDataset(std::string_view dataset, int status,
                                  int64_t nanos) {
  Histogram* histogram = nullptr;
  {
    MutexLock lock(&mu_);
    ++dataset_counts_[{std::string(dataset), status}];
    auto& slot = dataset_latency_[std::string(dataset)];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    histogram = slot.get();
  }
  histogram->Observe(nanos);  // atomics only; no need to hold mu_
}

std::vector<MetricFamily> ServerMetrics::Families() const {
  MetricFamily requests{"egp_http_requests_total", "counter",
                        "Requests served, by endpoint and status.", {}};
  MetricFamily by_dataset{"egp_requests_total", "counter",
                          "Dataset-scoped requests, by dataset and status.",
                          {}};
  MetricFamily dataset_latency{"egp_dataset_request_duration_seconds",
                               "histogram",
                               "Dataset-scoped request latency, by dataset.",
                               {}};
  {
    MutexLock lock(&mu_);
    for (const auto& [key, count] : counts_) {
      requests.series.push_back(
          {StatusLabels("endpoint", key.first, key.second), count});
    }
    for (const auto& [key, count] : dataset_counts_) {
      by_dataset.series.push_back(
          {StatusLabels("dataset", key.first, key.second), count});
    }
    for (const auto& [dataset, histogram] : dataset_latency_) {
      dataset_latency.series.push_back(
          {"dataset=\"" + dataset + "\"", histogram->snapshot()});
    }
  }
  std::vector<MetricFamily> families;
  families.push_back(std::move(requests));
  families.push_back(
      {"egp_http_request_duration_seconds", "histogram",
       "Request latency from routing to the built response (includes "
       "admission and JSON rendering; excludes read, queue, serialize "
       "and flush).",
       {{"", latency_.snapshot()}}});
  // A headed histogram family with zero series would fail the
  // exposition-grammar check, so the dataset families wait for their
  // first series.
  if (!by_dataset.series.empty()) families.push_back(std::move(by_dataset));
  if (!dataset_latency.series.empty()) {
    families.push_back(std::move(dataset_latency));
  }
  return families;
}

}  // namespace egp
