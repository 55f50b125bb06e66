// Request metrics for the serving subsystem (per-endpoint and
// per-dataset counters and latency histograms) and the Prometheus text
// rendering behind GET /metrics.
//
// Lock-light by design: Observe() on a histogram is a couple of relaxed
// atomic increments (serving-path cost ~nothing); only the
// per-(endpoint, status) counter map takes a mutex, and that map is tiny
// and hit once per request.
#ifndef EGP_SERVER_METRICS_H_
#define EGP_SERVER_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"

namespace egp {

/// One series of a family: its labels (`key="value",...` without
/// braces; empty for an unlabeled series) and its value.
struct MetricSeries {
  std::string labels;
  std::variant<uint64_t, double, Histogram::Snapshot> value;
};

/// One Prometheus family, declared once: its header fields and every
/// series under it.
struct MetricFamily {
  std::string_view name;
  std::string_view type;  // "counter", "gauge" or "histogram"
  std::string_view help;
  std::vector<MetricSeries> series;
};

/// The exposition text for `families`, in order: `# HELP` and `# TYPE`
/// per family, then its series. A histogram series expands to `_bucket`
/// samples over kHistogramBoundsNanos and +Inf, then `_sum` and `_count`.
std::string RenderMetricFamilies(const std::vector<MetricFamily>& families);

/// All request metrics the server exports. One instance per server,
/// shared by worker threads.
class ServerMetrics {
 public:
  /// Records one served request. `endpoint` should be the route label
  /// ("/v1/preview"), not the raw target (no per-query-string series).
  void RecordRequest(std::string_view endpoint, int status, int64_t nanos);

  /// Records one dataset-scoped request (preview/suggest after dataset
  /// resolution) under egp_requests_total{dataset=,status=} plus a
  /// per-dataset latency histogram. Dataset names come from the catalog
  /// (a bounded set), so per-dataset series cannot explode.
  void RecordDataset(std::string_view dataset, int status, int64_t nanos);

  /// The request families, in exposition order. The dataset-scoped ones
  /// appear once the first dataset request lands.
  std::vector<MetricFamily> Families() const;

 private:
  mutable Mutex mu_{"metrics.requests"};
  std::map<std::pair<std::string, int>, uint64_t> counts_ EGP_GUARDED_BY(mu_);
  std::map<std::pair<std::string, int>, uint64_t> dataset_counts_
      EGP_GUARDED_BY(mu_);
  // unique_ptr: a Histogram is an array of atomics (immovable), and
  // Observe() must run outside mu_ — the pointer is stable across
  // rehashing inserts of other datasets.
  std::map<std::string, std::unique_ptr<Histogram>> dataset_latency_
      EGP_GUARDED_BY(mu_);
  Histogram latency_;
};

}  // namespace egp

#endif  // EGP_SERVER_METRICS_H_
