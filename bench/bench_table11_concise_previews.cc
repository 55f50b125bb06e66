// Table 11: sample optimal concise previews — the paper's three measure
// combinations on film (Cov+Cov), music (RW+Cov) and tv (RW+Ent), all at
// k=5, n=10, rendered with sampled tuples.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/discover.h"
#include "core/tuple_sampler.h"
#include "io/preview_renderer.h"

namespace {

using namespace egp;

void ShowPreview(const char* domain_name, const char* key,
                 const char* nonkey) {
  const GeneratedDomain& domain = bench::Domain(domain_name);
  MeasureSelection measures;
  measures.key = key;
  measures.nonkey = nonkey;
  auto prepared = PreparedSchema::Create(domain.schema, measures,
                                         &domain.graph);
  EGP_CHECK(prepared.ok()) << prepared.status().ToString();

  auto preview = Discover(*prepared, "auto", {5, 10}, {});
  EGP_CHECK(preview.ok()) << preview.status().ToString();

  std::printf("\ndomain=%s, KS=%s, NKS=%s, k=5, n=10 (score %.4g)\n",
              domain_name, key, nonkey,
              preview->Score(*prepared));
  std::printf("%s", DescribePreview(*preview, *prepared).c_str());

  TupleSamplerOptions sampler;
  sampler.rows_per_table = 3;
  auto mat = MaterializePreview(domain.graph, *prepared, *preview, sampler);
  EGP_CHECK(mat.ok());
  RenderOptions render;
  render.max_cell_width = 28;
  render.show_direction = true;
  std::printf("%s", RenderPreview(domain.graph, *mat, render).c_str());
}

}  // namespace

int main() {
  egp::bench::PrintHeader("Table 11: sample optimal concise previews");
  ShowPreview("film", "coverage", "coverage");
  ShowPreview("music", "randomwalk", "coverage");
  ShowPreview("tv", "randomwalk", "entropy");
  std::printf(
      "\nExpected shape (paper Table 11): selected keys cover the domain's "
      "central types (FILM and its satellites; MUSICAL RECORDING/RELEASE; "
      "TV EPISODE/PROGRAM) with their busiest relationships as columns.\n");
  return 0;
}
