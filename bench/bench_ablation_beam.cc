// Ablation: beam-search approximation quality and speed vs the exact
// algorithms, on the music domain — including the regimes where Apriori
// degenerates (diverse d=2) and the beam keeps running.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"

namespace {

using namespace egp;

struct Config {
  const char* label;
  SizeConstraint size;
  DistanceConstraint distance;
};

void Run(const PreparedSchema& prepared, const Config& config) {
  // Exact optimum: DP for concise, Apriori (capped) otherwise.
  double exact_score = -1.0;
  double exact_ms = -1.0;
  {
    Timer timer;
    if (config.distance.mode == DistanceMode::kNone) {
      auto exact = DynamicProgrammingDiscover(prepared, config.size);
      if (exact.ok()) exact_score = exact->Score(prepared);
    } else {
      AprioriOptions options;
      options.max_level_size = 5'000'000;
      auto exact =
          AprioriDiscover(prepared, config.size, config.distance, options);
      if (exact.ok()) exact_score = exact->Score(prepared);
    }
    exact_ms = timer.ElapsedMillis();
  }

  Timer timer;
  auto beam = BeamSearchDiscover(prepared, config.size, config.distance);
  const double beam_ms = timer.ElapsedMillis();
  const double beam_score = beam.ok() ? beam->Score(prepared) : -1.0;

  std::string ratio = "n/a";
  if (exact_score > 0 && beam_score >= 0) {
    ratio = bench::FormatDouble(beam_score / exact_score, 4);
  } else if (exact_score < 0 && beam_score >= 0) {
    ratio = "exact DNF";
  }
  bench::PrintRow(config.label,
                  {exact_score >= 0 ? bench::FormatDouble(exact_score, 0)
                                    : std::string("DNF"),
                   bench::FormatDouble(std::max(exact_ms, 1.0), 0),
                   beam_score >= 0 ? bench::FormatDouble(beam_score, 0)
                                   : std::string("none"),
                   bench::FormatDouble(std::max(beam_ms, 1.0), 0), ratio},
                  26, 12);
}

}  // namespace

int main() {
  using namespace egp;
  bench::PrintHeader(
      "Ablation: beam search vs exact discovery (music domain)");
  auto prepared_or = PreparedSchema::Create(
      bench::Domain("music").schema, MeasureSelection{});
  EGP_CHECK(prepared_or.ok());
  const PreparedSchema prepared = std::move(prepared_or).value();

  bench::PrintRow("config", {"exact", "exact ms", "beam", "beam ms",
                             "ratio"},
                  26, 12);
  const Config configs[] = {
      {"concise k=5 n=10", {5, 10}, DistanceConstraint::None()},
      {"concise k=8 n=16", {8, 16}, DistanceConstraint::None()},
      {"tight d=2 k=5 n=10", {5, 10}, DistanceConstraint::Tight(2)},
      {"tight d=2 k=7 n=14", {7, 14}, DistanceConstraint::Tight(2)},
      {"diverse d=4 k=5 n=10", {5, 10}, DistanceConstraint::Diverse(4)},
      {"diverse d=2 k=6 n=12", {6, 12}, DistanceConstraint::Diverse(2)},
      {"diverse d=2 k=8 n=16", {8, 16}, DistanceConstraint::Diverse(2)},
  };
  for (const Config& config : configs) Run(prepared, config);
  std::printf(
      "\nReading: the beam stays within a few percent of optimal at "
      "millisecond cost, and still answers in the diverse d=2 regime where "
      "the exact Apriori level tables blow past the 5M cap (DNF).\n");
  return 0;
}
