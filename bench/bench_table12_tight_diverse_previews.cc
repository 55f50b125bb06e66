// Table 12: sample optimal tight (d=2) and diverse (d=4) previews on the
// film domain, Coverage/Coverage, k=5, n=10 — plus the key-spread check
// that motivates the tight/diverse distinction.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/discover.h"
#include "graph/schema_distance.h"

namespace {

using namespace egp;

void ShowPreview(const PreparedSchema& prepared,
                 const DistanceConstraint& constraint, const char* label) {
  auto preview = Discover(prepared, "auto", {5, 10}, constraint);
  if (!preview.ok()) {
    std::printf("\n%s: %s\n", label, preview.status().ToString().c_str());
    return;
  }
  std::printf("\n%s (score %.4g)\n", label, preview->Score(prepared));
  std::printf("%s", DescribePreview(*preview, prepared).c_str());

  // Pairwise key distances — tight previews huddle, diverse ones spread.
  const auto keys = preview->Keys();
  const SchemaDistanceMatrix& dist = prepared.distances();
  uint32_t min_d = UINT32_MAX, max_d = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      const uint32_t d = dist.Distance(keys[i], keys[j]);
      min_d = std::min(min_d, d);
      max_d = std::max(max_d, d);
    }
  }
  std::printf("pairwise key distance range: [%u, %u]\n", min_d, max_d);
}

}  // namespace

int main() {
  using namespace egp;
  bench::PrintHeader(
      "Table 12: sample optimal tight/diverse previews (film, Cov+Cov)");
  const GeneratedDomain& domain = bench::Domain("film");
  auto prepared =
      PreparedSchema::Create(domain.schema, MeasureSelection{});
  EGP_CHECK(prepared.ok());

  ShowPreview(*prepared, DistanceConstraint::Tight(2),
              "tight preview, k=5, n=10, d=2");
  ShowPreview(*prepared, DistanceConstraint::Diverse(4),
              "diverse preview, k=5, n=10, d=4");
  std::printf(
      "\nExpected shape (paper Table 12): tight keys all orbit FILM "
      "(pairwise distance <= 2); diverse keys are far apart (>= 4) and "
      "cover unrelated concepts.\n");
  return 0;
}
