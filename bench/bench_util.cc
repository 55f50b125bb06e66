#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "baseline/yps09.h"
#include "common/check.h"
#include "common/strings.h"
#include "common/timer.h"

namespace egp {
namespace bench {

const GeneratedDomain& Domain(const std::string& name) {
  static std::map<std::string, GeneratedDomain>* cache =
      new std::map<std::string, GeneratedDomain>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    auto domain = GenerateDomainByName(name, GeneratorOptions{});
    EGP_CHECK(domain.ok()) << "domain generation failed: "
                           << domain.status().ToString();
    it = cache->emplace(name, std::move(domain).value()).first;
  }
  return it->second;
}

std::vector<std::string> RankTypesByKeyMeasure(const GeneratedDomain& domain,
                                               const std::string& key) {
  MeasureSelection measures;
  measures.key = key;
  auto prepared = PreparedSchema::Create(domain.schema, measures);
  EGP_CHECK(prepared.ok());
  std::vector<std::pair<double, std::string>> scored;
  for (TypeId t = 0; t < prepared->num_types(); ++t) {
    scored.emplace_back(prepared->KeyScore(t), domain.schema.TypeName(t));
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> ranked;
  ranked.reserve(scored.size());
  for (auto& [score, name] : scored) ranked.push_back(std::move(name));
  return ranked;
}

std::vector<std::string> RankTypesByYps09(const GeneratedDomain& domain) {
  auto summary = RunYps09(domain.graph, domain.schema, Yps09Options{});
  EGP_CHECK(summary.ok()) << summary.status().ToString();
  std::vector<std::string> ranked;
  ranked.reserve(summary->ranked.size());
  for (TypeId t : summary->ranked) {
    ranked.push_back(domain.schema.TypeName(t));
  }
  return ranked;
}

GroundTruth GoldKeySet(const GeneratedDomain& domain) {
  GroundTruth truth;
  for (const GoldTable& table : domain.gold.tables) truth.insert(table.key);
  return truth;
}

double TimeMs(const std::function<void()>& fn, int repeats) {
  double total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    fn();
    total += timer.ElapsedMillis();
  }
  const double mean = total / repeats;
  return std::max(mean, 1.0);  // paper convention: < 1 ms reports as 1 ms
}

std::string TimedDiscovery::Format() const {
  const auto rounded = static_cast<long long>(std::llround(ms));
  return extrapolated ? StrFormat("~%lld", rounded)
                      : StrFormat("%lld", rounded);
}

TimedDiscovery TimeBruteForce(const PreparedSchema& prepared,
                              const SizeConstraint& size,
                              const DistanceConstraint& distance,
                              uint64_t max_subsets) {
  BruteForceOptions options;
  options.max_subsets = max_subsets;
  DiscoveryStats stats;
  Timer timer;
  auto preview = BruteForceDiscover(prepared, size, distance, options, &stats);
  const double elapsed = timer.ElapsedMillis();
  (void)preview;  // NotFound is fine (infeasible constraint)

  TimedDiscovery result;
  if (!stats.truncated || stats.subsets_enumerated == 0) {
    result.ms = std::max(elapsed, 1.0);
    return result;
  }
  // Extrapolate to the untruncated subset count C(eligible, k).
  size_t eligible = 0;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    if (prepared.Eligible(t)) ++eligible;
  }
  double total_subsets = 1.0;
  for (uint32_t i = 0; i < size.k; ++i) {
    total_subsets *= static_cast<double>(eligible - i) / (i + 1);
  }
  result.ms = std::max(
      elapsed * total_subsets / static_cast<double>(stats.subsets_enumerated),
      1.0);
  result.extrapolated = true;
  return result;
}

void PrintRow(const std::string& label, const std::vector<std::string>& cells,
              size_t label_width, size_t cell_width) {
  std::printf("%-*s", static_cast<int>(label_width), label.c_str());
  for (const std::string& cell : cells) {
    std::printf(" %*s", static_cast<int>(cell_width), cell.c_str());
  }
  std::printf("\n");
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

std::string FormatDouble(double value, int precision) {
  return StrFormat("%.*f", precision, value);
}

}  // namespace bench
}  // namespace egp
