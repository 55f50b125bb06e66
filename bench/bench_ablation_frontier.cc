// Ablation: the size/score trade-off surface (§4's central tension),
// computed in one DP pass per domain. Prints the normalized optimal
// score across the (k, n) grid and the smallest preview retaining 90%
// of the full-budget score — data for choosing constraints rationally.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/frontier.h"
#include "eval/user_study.h"

int main() {
  using namespace egp;
  bench::PrintHeader("Ablation: preview size vs score frontier");
  constexpr uint32_t kMaxK = 8;
  constexpr uint32_t kMaxN = 16;

  for (const std::string& name : UserStudyDomains()) {
    const GeneratedDomain& domain = bench::Domain(name);
    auto prepared =
        PreparedSchema::Create(domain.schema, MeasureSelection{});
    EGP_CHECK(prepared.ok());
    auto frontier = ComputeScoreFrontier(*prepared, kMaxK, kMaxN);
    EGP_CHECK(frontier.ok()) << frontier.status().ToString();

    const double full = frontier->At(kMaxK, kMaxN);
    std::printf("\ndomain=%s (scores normalized to k=%u, n=%u)\n",
                name.c_str(), kMaxK, kMaxN);
    std::vector<std::string> header;
    for (uint32_t n = 2; n <= kMaxN; n += 2) {
      header.push_back("n=" + std::to_string(n));
    }
    bench::PrintRow("k", header, 6, 8);
    for (uint32_t k = 1; k <= kMaxK; ++k) {
      std::vector<std::string> cells;
      for (uint32_t n = 2; n <= kMaxN; n += 2) {
        if (n < k) {
          cells.push_back("-");
          continue;
        }
        const double score = frontier->At(k, n);
        cells.push_back(score < 0 ? "-" : bench::FormatDouble(score / full,
                                                              3));
      }
      bench::PrintRow(std::to_string(k), cells, 6, 8);
    }
    const ScoreFrontier::Point knee = frontier->KneeAt(0.9);
    std::printf("90%% knee: k=%u, n=%u (%.1f%% of full score)\n", knee.k,
                knee.n, 100.0 * knee.score / full);
  }
  std::printf(
      "\nReading: the marginal value of width (n) and of extra tables (k) "
      "decays quickly — a compact preview retains most of the full-budget "
      "score, which is the premise behind enforcing small (k, n).\n");
  return 0;
}
