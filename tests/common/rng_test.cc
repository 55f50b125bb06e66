#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <vector>

namespace egp {
namespace {

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, LogNormalMedianIsExpMu) {
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.NextLogNormal(3.0, 0.4));
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], std::exp(3.0), 1.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 200; ++i) {
    const size_t pick = rng.NextWeighted(weights);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(RngTest, WeightedProportions) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextWeighted(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(41);
  const auto picked = rng.SampleIndices(100, 10);
  EXPECT_EQ(picked.size(), 10u);
  std::set<size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t i : picked) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesWhenKExceedsN) {
  Rng rng(43);
  EXPECT_EQ(rng.SampleIndices(4, 10), (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(rng.SampleIndices(4, 4), (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(rng.SampleIndices(4, 0).empty());
  EXPECT_TRUE(rng.SampleIndices(0, 3).empty());
}

TEST(RngTest, NextBoundedStreamIsPinned) {
  // First draws per bound, and the raw Next() that follows them (which
  // pins how many draws rejection consumed), from seed 2026. 2^63+1
  // rejects about half its draws, so its slow path is covered.
  struct Case {
    uint64_t bound;
    uint64_t draws[6];
    uint64_t next;
  };
  const Case cases[] = {
      {1ull, {0ull, 0ull, 0ull, 0ull, 0ull, 0ull}, 15379287288619705772ull},
      {7ull, {4ull, 3ull, 2ull, 1ull, 4ull, 3ull}, 15379287288619705772ull},
      {4294967297ull,
       {2612567229ull, 617472324ull, 3449569460ull, 2718796380ull,
        4047548242ull, 794935205ull},
       15379287288619705772ull},
      {9223372036854775809ull,
       {1360106162197409300ull, 5764781416019451609ull,
        7262015536237995777ull, 5756035153803754185ull,
        5327109252069683527ull, 6155915251764929963ull},
       15290312516027121239ull},
      {18446744073709551615ull,
       {10583478199052185109ull, 5232962402658359512ull,
        14988153452874227418ull, 16485387573092771586ull,
        14979407190658529994ull, 14550481288924459336ull},
       15379287288619705772ull},
  };
  for (const Case& c : cases) {
    Rng rng(2026);
    for (uint64_t draw : c.draws) {
      EXPECT_EQ(rng.NextBounded(c.bound), draw) << "bound " << c.bound;
    }
    EXPECT_EQ(rng.Next(), c.next) << "bound " << c.bound;
  }
}

TEST(RngTest, SampleIndicesStreamIsPinned) {
  // Floyd's draw from seed 2026, and the raw Next() that follows it. The
  // trailing values are the (k+1)-th raw draw of the seed, so each sample
  // consumed exactly k draws.
  struct Case {
    size_t n;
    size_t k;
    std::vector<size_t> picked;
    uint64_t next;
  };
  const Case cases[] = {
      {7, 3, {2, 4, 5}, 16485387573092771586ull},
      {1000, 5, {30, 776, 845, 912, 994}, 14550481288924459336ull},
      {100000,
       8,
       {14050, 20677, 21239, 28373, 36077, 46746, 70518, 92318},
       15882879679256567931ull},
  };
  for (const Case& c : cases) {
    Rng rng(2026);
    EXPECT_EQ(rng.SampleIndices(c.n, c.k), c.picked) << "n " << c.n;
    EXPECT_EQ(rng.Next(), c.next) << "n " << c.n;
  }
}

/// Pearson's chi-square of how often each k-subset of [0, n) is drawn
/// against the uniform 1/C(n, k).
double SubsetChiSquare(size_t n, size_t k, size_t draws, size_t* subsets) {
  Rng rng(20261020);
  std::map<std::vector<size_t>, size_t> counts;
  for (size_t i = 0; i < draws; ++i) ++counts[rng.SampleIndices(n, k)];
  *subsets = counts.size();
  double expected = static_cast<double>(draws);
  // C(n, k) by the multiplicative formula.
  double total = 1.0;
  for (size_t i = 0; i < k; ++i) {
    total = total * static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  expected /= total;
  double chi = 0.0;
  for (const auto& [subset, count] : counts) {
    const double d = static_cast<double>(count) - expected;
    chi += d * d / expected;
  }
  // Subsets never drawn contribute expected each.
  chi += (total - static_cast<double>(counts.size())) * expected;
  return chi;
}

TEST(RngTest, SampleIndicesIsUniformOverSubsets) {
  // Critical values at p = 0.001: 36.12 for 14 degrees of freedom (the 15
  // 2-subsets of 6), 27.88 for 9 (the 10 3-subsets of 5).
  size_t subsets = 0;
  EXPECT_LT(SubsetChiSquare(6, 2, 30000, &subsets), 36.12);
  EXPECT_EQ(subsets, 15u);
  EXPECT_LT(SubsetChiSquare(5, 3, 20000, &subsets), 27.88);
  EXPECT_EQ(subsets, 10u);
}

TEST(RngTest, SampleIndicesLargeDrawsAreDistinctAscendingAndLinear) {
  // k = n-1 and k = n/2 at the API's row cap: a linear membership scan
  // would take ~5e9 steps here; the hash set takes ~1e5.
  struct Case {
    size_t n;
    size_t k;
  };
  for (const Case c : {Case{200001, 200000}, Case{200000, 100000}}) {
    Rng rng(c.n);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<size_t> picked = rng.SampleIndices(c.n, c.k);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_EQ(picked.size(), c.k);
    for (size_t i = 1; i < picked.size(); ++i) {
      ASSERT_LT(picked[i - 1], picked[i]) << "at " << i;
    }
    EXPECT_LT(picked.back(), c.n);
    EXPECT_LT(seconds, 1.0) << "k " << c.k << " of " << c.n;
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(47);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfDistribution zipf(50, 1.0);
  double total = 0.0;
  for (size_t i = 0; i < zipf.size(); ++i) total += zipf.Probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, MonotoneDecreasing) {
  ZipfDistribution zipf(20, 0.8);
  for (size_t i = 1; i < zipf.size(); ++i) {
    EXPECT_GT(zipf.Probability(i - 1), zipf.Probability(i));
  }
}

TEST(ZipfTest, SampleFrequenciesMatchProbabilities) {
  ZipfDistribution zipf(5, 1.0);
  Rng rng(53);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, zipf.Probability(i), 0.01);
  }
}

TEST(ZipfTest, SingleElement) {
  ZipfDistribution zipf(1, 2.0);
  Rng rng(59);
  EXPECT_EQ(zipf.Sample(&rng), 0u);
  EXPECT_DOUBLE_EQ(zipf.Probability(0), 1.0);
}

}  // namespace
}  // namespace egp
