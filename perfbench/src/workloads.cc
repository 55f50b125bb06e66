#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <random>

namespace perfbench {

namespace {

constexpr const char* kDatasets[] = {"basketball", "film"};

std::string Concise(const char* dataset, int k, int n) {
  return std::string("{\"dataset\":\"") + dataset + "\",\"k\":" +
         std::to_string(k) + ",\"n\":" + std::to_string(n) +
         ",\"algorithm\":\"dp\"}";
}

std::vector<std::string> DefaultWarmers(bool film_only) {
  std::vector<std::string> warmers;
  for (const char* dataset : kDatasets) {
    if (film_only && std::string(dataset) != "film") continue;
    warmers.push_back(Concise(dataset, 2, 4));
  }
  return warmers;
}

// DP concise previews over both datasets: the transport/parse/api path.
std::vector<std::string> SchemaPool() {
  std::vector<std::string> pool;
  for (const char* dataset : kDatasets) {
    for (int k = 2; k <= 4; ++k) {
      for (int n = k + 1; n <= k + 5; ++n) pool.push_back(Concise(dataset, k, n));
    }
  }
  return pool;
}

}  // namespace

bool MakePlan(const std::string& name, uint64_t seed, int client_cpus,
              WorkloadPlan* plan) {
  plan->name = name;
  plan->seed = seed;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  if (name == "warm_schema") {
    plan->connections = client_cpus;
    plan->pool = SchemaPool();
    plan->warmers = DefaultWarmers(false);
  } else if (name == "warm_sampled") {
    // Concise previews with 2-5 sampled rows per table: sampling and
    // JSON rendering dominate. Which rows are sampled comes from the
    // seed. A few hub rows make some bodies 50 KB, so the pool draws 20
    // sample seeds per shape: that keeps the mean work and its p99 steady
    // from one run seed to the next.
    plan->connections = client_cpus;
    for (const char* dataset : kDatasets) {
      for (int k = 2; k <= 4; ++k) {
        for (const int extra : {4, 8}) {
          for (int draw = 0; draw < 80; ++draw) {
            const int rows = 2 + draw % 4;
            const uint64_t sample_seed = rng() >> 12;
            std::string body = Concise(dataset, k, k + extra);
            body.pop_back();
            body += ",\"sample\":{\"rows\":" + std::to_string(rows) +
                    ",\"seed\":" + std::to_string(sample_seed) + "}}";
            plan->pool.push_back(std::move(body));
          }
        }
      }
    }
    plan->warmers = DefaultWarmers(false);
  } else if (name == "discover_heavy") {
    // Apriori and beam search under distance constraints on film, each
    // request 1-10 ms of discovery. Left out on purpose: tight d=1 (no
    // feasible k=4 subset on some seeds), apriori tight d=3 with k=4 and
    // apriori diverse with k=4 (80-120 ms each), and k >= 5 (seconds).
    plan->connections = 2 * client_cpus;
    struct Shape {
      const char* algorithm;
      const char* mode;
      int d;
      std::vector<int> ks;
    };
    const Shape shapes[] = {{"apriori", "tight", 2, {3, 4}},
                            {"apriori", "tight", 3, {3}},
                            {"apriori", "diverse", 2, {3}},
                            {"apriori", "diverse", 3, {3}},
                            {"beam", "tight", 3, {3, 4}},
                            {"beam", "diverse", 2, {3, 4}}};
    for (const Shape& shape : shapes) {
      for (const int k : shape.ks) {
        for (const int n : {10, 12}) {
          plan->pool.push_back(
              std::string("{\"dataset\":\"film\",\"k\":") + std::to_string(k) +
              ",\"n\":" + std::to_string(n) + ",\"algorithm\":\"" +
              shape.algorithm + "\",\"" + shape.mode + "\":" +
              std::to_string(shape.d) + "}");
        }
      }
    }
    plan->warmers = DefaultWarmers(true);
  } else if (name == "cold_mixed") {
    // Open loop: hot concise previews well below warm_schema capacity,
    // beside a low-rate stream of cold PreparedSchema builds.
    plan->open_loop = true;
    plan->connections = 2 * client_cpus;
    plan->pool = SchemaPool();
    plan->warmers = DefaultWarmers(false);
    plan->hot_rate = 4000.0;
    plan->cold_rate = 12.0;
  } else {
    return false;
  }
  return true;
}

std::string ColdBody(uint64_t seed, uint64_t index) {
  // Distinct smoothings: a seeded base in [0.10, 0.20) plus 1e-5 per
  // index, printed exactly enough to stay distinct.
  const double base = 0.10 + static_cast<double>(seed % 9973) / 99730.0;
  char smoothing[32];
  std::snprintf(smoothing, sizeof(smoothing), "%.7f", base + 1e-5 * index);
  const int n = index % 2 == 0 ? 8 : 10;
  return std::string("{\"dataset\":\"film\",\"k\":3,\"n\":") +
         std::to_string(n) +
         ",\"measures\":{\"key\":\"randomwalk\",\"nonkey\":\"entropy\","
         "\"walk\":{\"smoothing\":" + smoothing + "}}}";
}

std::vector<size_t> CallerOrder(uint64_t seed, int caller, size_t pool_size) {
  std::vector<size_t> order(pool_size);
  for (size_t i = 0; i < pool_size; ++i) order[i] = i;
  std::mt19937_64 rng(seed * 1000003ull + static_cast<uint64_t>(caller));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

}  // namespace perfbench
