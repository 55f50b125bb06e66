// Figure 8: execution time of optimal concise preview discovery —
// Brute-Force (Alg. 1) vs Dynamic-Programming (Alg. 2).
//
// Three sweeps, exactly the paper's:
//   (1) domains basketball (B), architecture (A), music (M) at k=5, n=10;
//   (2) k = 3..9 on music, n = 20;
//   (3) n = 8..20 on music, k = 6.
// Brute force is capped at 2M subsets per configuration and linearly
// extrapolated beyond (prefixed with '~'); see TimeBruteForce in
// bench/bench_util.h.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/dynamic_programming.h"

namespace {

using namespace egp;

PreparedSchema Prepare(const std::string& domain_name) {
  auto prepared = PreparedSchema::Create(
      bench::Domain(domain_name).schema, MeasureSelection{});
  EGP_CHECK(prepared.ok());
  return std::move(prepared).value();
}

std::string TimeDp(const PreparedSchema& prepared, SizeConstraint size) {
  const double ms = bench::TimeMs([&] {
    auto preview = DynamicProgrammingDiscover(prepared, size);
    EGP_CHECK(preview.ok()) << preview.status().ToString();
  });
  return bench::FormatDouble(ms, 0);
}

}  // namespace

int main() {
  using namespace egp;
  bench::PrintHeader(
      "Figure 8: concise preview discovery time (ms), BF vs DP");

  std::printf("\n(1) domain sweep, k=5, n=10\n");
  bench::PrintRow("domain", {"BruteForce", "DynamicProg"});
  for (const char* name : {"basketball", "architecture", "music"}) {
    const PreparedSchema prepared = Prepare(name);
    const SizeConstraint size{5, 10};
    bench::PrintRow(
        name,
        {bench::TimeBruteForce(prepared, size, DistanceConstraint::None())
             .Format(),
         TimeDp(prepared, size)});
  }

  std::printf("\n(2) k sweep, music, n=20\n");
  bench::PrintRow("k", {"BruteForce", "DynamicProg"});
  {
    const PreparedSchema prepared = Prepare("music");
    for (uint32_t k = 3; k <= 9; ++k) {
      const SizeConstraint size{k, 20};
      bench::PrintRow(
          std::to_string(k),
          {bench::TimeBruteForce(prepared, size, DistanceConstraint::None())
               .Format(),
           TimeDp(prepared, size)});
    }
  }

  std::printf("\n(3) n sweep, music, k=6\n");
  bench::PrintRow("n", {"BruteForce", "DynamicProg"});
  {
    const PreparedSchema prepared = Prepare("music");
    for (uint32_t n = 8; n <= 20; n += 2) {
      const SizeConstraint size{6, n};
      bench::PrintRow(
          std::to_string(n),
          {bench::TimeBruteForce(prepared, size, DistanceConstraint::None())
               .Format(),
           TimeDp(prepared, size)});
    }
  }

  std::printf(
      "\nExpected shape (paper Fig. 8): DP beats BF by orders of magnitude "
      "except on the tiny basketball schema and at k=3, where BF's simple "
      "loop wins; BF grows combinatorially in k, DP stays flat.\n");
  return 0;
}
