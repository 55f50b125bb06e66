// google-benchmark microbenchmarks of the core primitives: schema
// preparation, scoring, all-pairs distances, the three discovery
// algorithms on the exact-size paper schemas, and row sampling.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/brute_force.h"
#include "core/dynamic_programming.h"
#include "core/frontier.h"
#include "core/key_pairs.h"
#include "core/tuple_sampler.h"
#include "datagen/generator.h"
#include "graph/frozen_graph.h"
#include "graph/schema_distance.h"
#include "tests/testing/random_schema.h"

namespace {

using namespace egp;

const GeneratedDomain& MusicDomain() { return bench::Domain("music"); }

PreparedSchema PreparedMusic() {
  auto prepared =
      PreparedSchema::Create(MusicDomain().schema, MeasureSelection{},
                             &MusicDomain().graph);
  EGP_CHECK(prepared.ok());
  return std::move(prepared).value();
}

PreparedSchema PreparedFilm() {
  const GeneratedDomain& film = bench::Domain("film");
  auto prepared =
      PreparedSchema::Create(film.schema, MeasureSelection{}, &film.graph);
  EGP_CHECK(prepared.ok());
  return std::move(prepared).value();
}

void BM_SchemaDerivation(benchmark::State& state) {
  const GeneratedDomain& domain = MusicDomain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchemaGraph::FromEntityGraph(domain.graph));
  }
}
BENCHMARK(BM_SchemaDerivation);

void BM_PrepareCoverage(benchmark::State& state) {
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema,
                                           MeasureSelection{});
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareCoverage);

void BM_PrepareRandomWalk(benchmark::State& state) {
  MeasureSelection measures;
  measures.key = "randomwalk";
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema, measures);
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareRandomWalk);

void BM_PrepareEntropy(benchmark::State& state) {
  MeasureSelection measures;
  measures.nonkey = "entropy";
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema, measures,
                                           &MusicDomain().graph);
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareEntropy);

void BM_AllPairsDistances(benchmark::State& state) {
  for (auto _ : state) {
    SchemaDistanceMatrix dist(MusicDomain().schema);
    benchmark::DoNotOptimize(dist.Diameter());
  }
}
BENCHMARK(BM_AllPairsDistances);

void BM_DynamicProgramming(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 20};
  for (auto _ : state) {
    auto preview = DynamicProgrammingDiscover(prepared, size);
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_DynamicProgramming)->Arg(3)->Arg(6)->Arg(9);

void BM_AprioriTight(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 20};
  for (auto _ : state) {
    auto preview =
        AprioriDiscover(prepared, size, DistanceConstraint::Tight(2));
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_AprioriTight)->Arg(3)->Arg(5);

void BM_BruteForceSmallK(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 10};
  for (auto _ : state) {
    auto preview =
        BruteForceDiscover(prepared, size, DistanceConstraint::None());
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_BruteForceSmallK)->Arg(2)->Arg(3);

void BM_ScoreFrontier(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const uint32_t max_k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto frontier = ComputeScoreFrontier(prepared, max_k, 2 * max_k);
    benchmark::DoNotOptimize(frontier);
  }
}
BENCHMARK(BM_ScoreFrontier)->Arg(5)->Arg(10);

void BM_FreezeGraph(benchmark::State& state) {
  for (auto _ : state) {
    FrozenGraph frozen = FrozenGraph::Freeze(MusicDomain().graph);
    benchmark::DoNotOptimize(frozen.num_arcs());
  }
}
BENCHMARK(BM_FreezeGraph);

// One preview's row sampling on film 0.02 in perfbench warm_sampled's
// shapes: DP previews with k 2-4 and n k+4 or k+8, 2-5 rows per table,
// a fresh sample seed per call. Arg 0 is the random strategy, 1 the
// frequency-weighted one. Cells are read from the graph's CSR runs, so
// this also covers the neighbour-set scan.
void BM_MaterializePreview(benchmark::State& state) {
  static const GeneratedDomain* film = [] {
    GeneratorOptions options;
    options.scale = 0.02;
    auto domain = GenerateDomainByName("film", options);
    EGP_CHECK(domain.ok());
    return new GeneratedDomain(std::move(domain).value());
  }();
  static const PreparedSchema* prepared = [] {
    auto built =
        PreparedSchema::Create(film->schema, MeasureSelection{}, &film->graph);
    EGP_CHECK(built.ok());
    return new PreparedSchema(std::move(built).value());
  }();
  std::vector<Preview> previews;
  for (uint32_t k = 2; k <= 4; ++k) {
    for (const uint32_t extra : {4u, 8u}) {
      auto preview = DynamicProgrammingDiscover(*prepared, {k, k + extra});
      EGP_CHECK(preview.ok());
      previews.push_back(std::move(preview).value());
    }
  }
  TupleSamplerOptions options;
  options.strategy = state.range(0) == 0 ? SamplingStrategy::kRandom
                                         : SamplingStrategy::kFrequencyWeighted;
  uint64_t call = 0;
  size_t values = 0;
  for (auto _ : state) {
    options.rows_per_table = 2 + call % 4;
    options.seed = call;
    auto materialized = MaterializePreview(
        film->graph, *prepared, previews[call % previews.size()], options);
    for (const MaterializedTable& table : materialized->tables) {
      for (const MaterializedRow& row : table.rows) {
        for (const MaterializedCell& cell : row.cells) {
          values += cell.values.size();
        }
      }
    }
    ++call;
  }
  state.counters["values"] = benchmark::Counter(
      static_cast<double>(values), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MaterializePreview)->ArgName("frequency")->Arg(0)->Arg(1);

void BM_ComposePreviewScore(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  std::vector<TypeId> keys;
  for (TypeId t = 0; t < prepared.num_types() && keys.size() < 6; ++t) {
    if (prepared.Eligible(t)) keys.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComposePreviewScore(prepared, keys, 20));
  }
}
BENCHMARK(BM_ComposePreviewScore);

// The discovery shapes of perfbench's discover_heavy workload on the film
// schema (63 types): beam search under tight d=3 (arg 1 = 0) and diverse
// d=2 (arg 1 = 1), and Apriori under diverse d. n = 12 throughout.
void BM_BeamSearch(benchmark::State& state) {
  const PreparedSchema prepared = PreparedFilm();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 12};
  const DistanceConstraint distance = state.range(1) == 0
                                          ? DistanceConstraint::Tight(3)
                                          : DistanceConstraint::Diverse(2);
  DiscoveryStats stats;
  for (auto _ : state) {
    auto preview =
        BeamSearchDiscover(prepared, size, distance, BeamSearchOptions{},
                           &stats);
    benchmark::DoNotOptimize(preview);
  }
  state.counters["subsets"] = static_cast<double>(stats.subsets_enumerated);
  state.counters["scored"] = static_cast<double>(stats.subsets_scored);
}
BENCHMARK(BM_BeamSearch)
    ->ArgNames({"k", "diverse"})
    ->Args({3, 0})
    ->Args({4, 0})
    ->Args({3, 1})
    ->Args({4, 1});

void BM_AprioriDiverse(benchmark::State& state) {
  const PreparedSchema prepared = PreparedFilm();
  const SizeConstraint size{3, 12};
  const DistanceConstraint distance =
      DistanceConstraint::Diverse(static_cast<uint32_t>(state.range(0)));
  DiscoveryStats stats;
  for (auto _ : state) {
    auto preview = AprioriDiscover(prepared, size, distance,
                                   AprioriOptions{}, &stats);
    benchmark::DoNotOptimize(preview);
  }
  state.counters["subsets"] = static_cast<double>(stats.subsets_enumerated);
  state.counters["scored"] = static_cast<double>(stats.subsets_scored);
}
BENCHMARK(BM_AprioriDiverse)->ArgName("d")->Arg(2)->Arg(3);

// The film shapes perfbench's discover_heavy leaves out for their cost:
// Apriori under diverse d=2 (arg 1 = 1) and tight d=3 (arg 1 = 0), n = 12,
// at k = 4 and k = 6.
void AprioriFilm(benchmark::State& state, uint32_t k) {
  const PreparedSchema prepared = PreparedFilm();
  const SizeConstraint size{k, 12};
  const DistanceConstraint distance =
      state.range(1) == 0
          ? DistanceConstraint::Tight(static_cast<uint32_t>(state.range(0)))
          : DistanceConstraint::Diverse(static_cast<uint32_t>(state.range(0)));
  DiscoveryStats stats;
  for (auto _ : state) {
    auto preview = AprioriDiscover(prepared, size, distance,
                                   AprioriOptions{}, &stats);
    benchmark::DoNotOptimize(preview);
  }
  state.counters["subsets"] = static_cast<double>(stats.subsets_enumerated);
  state.counters["scored"] = static_cast<double>(stats.subsets_scored);
}

void BM_AprioriFilmK4(benchmark::State& state) { AprioriFilm(state, 4); }
BENCHMARK(BM_AprioriFilmK4)
    ->ArgNames({"d", "diverse"})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Unit(benchmark::kMillisecond);

void BM_AprioriFilmK6(benchmark::State& state) { AprioriFilm(state, 6); }
BENCHMARK(BM_AprioriFilmK6)
    ->ArgNames({"d", "diverse"})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Unit(benchmark::kMillisecond);

// A request's pair matrix from the rows PreparedSchema keeps: tight d=3
// reads them in place (arg = 0), diverse d=2 complements them (arg = 1).
void BM_KeyPairs(benchmark::State& state) {
  const PreparedSchema prepared = PreparedFilm();
  const DistanceConstraint distance = state.range(0) == 0
                                          ? DistanceConstraint::Tight(3)
                                          : DistanceConstraint::Diverse(2);
  for (auto _ : state) {
    const KeyPairs pairs(prepared, distance);
    benchmark::DoNotOptimize(pairs.Row(0));
  }
}
BENCHMARK(BM_KeyPairs)->ArgName("diverse")->Arg(0)->Arg(1);

// The worst case of the score bound: 63 types in a ring with chords, every
// type with equal key and candidate scores, so every k-subset ties and no
// bound can prune. Apriori k = 3 and beam k = 4 under diverse d=2, n = 12.
PreparedSchema PreparedUniform() {
  auto prepared = PreparedSchema::Create(
      testing_util::UniformSchemaGraph(63, 5), MeasureSelection{});
  EGP_CHECK(prepared.ok());
  return std::move(prepared).value();
}

void BM_AprioriUniform(benchmark::State& state) {
  const PreparedSchema prepared = PreparedUniform();
  DiscoveryStats stats;
  for (auto _ : state) {
    auto preview =
        AprioriDiscover(prepared, SizeConstraint{3, 12},
                        DistanceConstraint::Diverse(2), AprioriOptions{},
                        &stats);
    benchmark::DoNotOptimize(preview);
  }
  state.counters["subsets"] = static_cast<double>(stats.subsets_enumerated);
  state.counters["scored"] = static_cast<double>(stats.subsets_scored);
}
BENCHMARK(BM_AprioriUniform);

void BM_BeamUniform(benchmark::State& state) {
  const PreparedSchema prepared = PreparedUniform();
  DiscoveryStats stats;
  for (auto _ : state) {
    auto preview = BeamSearchDiscover(prepared, SizeConstraint{4, 12},
                                      DistanceConstraint::Diverse(2),
                                      BeamSearchOptions{}, &stats);
    benchmark::DoNotOptimize(preview);
  }
  state.counters["subsets"] = static_cast<double>(stats.subsets_enumerated);
  state.counters["scored"] = static_cast<double>(stats.subsets_scored);
}
BENCHMARK(BM_BeamUniform);

}  // namespace

BENCHMARK_MAIN();
