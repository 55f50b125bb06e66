#include "bench/key_accuracy.h"

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "eval/ranking_metrics.h"
#include "eval/user_study.h"

namespace egp {
namespace bench {
namespace {

double Evaluate(AccuracyMetric metric, const std::vector<std::string>& ranked,
                const GroundTruth& truth, size_t k) {
  switch (metric) {
    case AccuracyMetric::kPrecision:
      return PrecisionAtK(ranked, truth, k);
    case AccuracyMetric::kAveragePrecision:
      return AveragePrecisionAtK(ranked, truth, k);
    case AccuracyMetric::kNdcg:
      return NdcgAtK(ranked, truth, k);
  }
  return 0.0;
}

double Optimal(AccuracyMetric metric, size_t truth_size, size_t k) {
  switch (metric) {
    case AccuracyMetric::kPrecision:
      return OptimalPrecisionAtK(truth_size, k);
    case AccuracyMetric::kAveragePrecision:
      return OptimalAveragePrecisionAtK(truth_size, k);
    case AccuracyMetric::kNdcg:
      return 1.0;  // the ideal ranking has nDCG 1 at every K
  }
  return 0.0;
}

}  // namespace

void RunKeyAccuracyBench(AccuracyMetric metric, const char* title) {
  PrintHeader(title);
  for (const std::string& name : UserStudyDomains()) {
    const GeneratedDomain& domain = Domain(name);
    const GroundTruth truth = GoldKeySet(domain);
    const auto coverage = RankTypesByKeyMeasure(domain, "coverage");
    const auto random_walk = RankTypesByKeyMeasure(domain, "randomwalk");
    const auto yps09 = RankTypesByYps09(domain);

    std::printf("\ndomain=%s (K axis 1..20)\n", name.c_str());
    PrintRow("K", {}, 14, 0);
    struct Series {
      const char* label;
      const std::vector<std::string>* ranking;
    };
    const Series series[] = {
        {"Coverage", &coverage},
        {"RandomWalk", &random_walk},
        {"YPS09", &yps09},
    };
    for (const Series& s : series) {
      std::vector<std::string> cells;
      for (size_t k = 1; k <= 20; ++k) {
        cells.push_back(FormatDouble(Evaluate(metric, *s.ranking, truth, k),
                                     2));
      }
      PrintRow(s.label, cells, 14, 5);
    }
    std::vector<std::string> optimal_cells;
    for (size_t k = 1; k <= 20; ++k) {
      optimal_cells.push_back(FormatDouble(Optimal(metric, truth.size(), k),
                                           2));
    }
    PrintRow("Optimal", optimal_cells, 14, 5);
  }
  std::printf(
      "\nExpected shape (paper): Coverage and RandomWalk track Optimal "
      "closely (P@10 near 0.6) and beat YPS09 in 4 of 5 domains.\n");
}

}  // namespace bench
}  // namespace egp
