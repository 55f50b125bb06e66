#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace egp {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  EGP_CHECK(bound > 0) << "NextBounded(0)";
  return NextBoundedPositive(bound);
}

uint64_t Rng::NextBoundedPositive(uint64_t bound) {
  // Rejection sampling to avoid modulo bias: a draw below the threshold
  // 2^64 mod bound is redrawn. The threshold is below bound, so a draw at
  // or above bound is always kept and the threshold's division is paid
  // only for the rare draw below bound.
  for (;;) {
    const uint64_t r = Next();
    if (r >= bound || r >= -bound % bound) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  EGP_CHECK(lo <= hi) << "NextInt range inverted: " << lo << ".." << hi;
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian(double mean, double stddev) {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return mean + stddev * cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  EGP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    EGP_CHECK(w >= 0.0) << "negative weight";
    total += w;
  }
  EGP_CHECK(total > 0.0) << "all weights zero";
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;  // Floating-point slack.
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  std::vector<size_t> picked;
  if (k >= n) {
    picked.resize(n);
    std::iota(picked.begin(), picked.end(), size_t{0});
    return picked;
  }
  // Floyd's algorithm: for j = n-k, ..., n-1, draw t uniform in [0, j]
  // and take t, or j when t is already taken (j exceeds every index taken
  // before it, so it is always free). After k draws every k-subset has
  // probability 1/C(n, k). Membership is an open-addressing set of
  // index + 1 (0 marks a free slot), at most half full, so each draw
  // costs O(1) expected whatever n is.
  const size_t capacity = std::bit_ceil(2 * k);
  const size_t mask = capacity - 1;
  std::vector<size_t> slots(capacity, 0);
  const auto insert = [&slots, mask](size_t index) {
    size_t slot = static_cast<size_t>((index * 0x9E3779B97F4A7C15ull) >> 32);
    for (;; ++slot) {
      size_t& entry = slots[slot & mask];
      if (entry == index + 1) return false;
      if (entry == 0) {
        entry = index + 1;
        return true;
      }
    }
  };
  picked.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t index = NextBoundedPositive(j + 1);
    if (!insert(index)) {
      index = j;
      insert(j);
    }
    picked.push_back(index);
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

Rng Rng::Fork() { return Rng(Next()); }

ZipfDistribution::ZipfDistribution(size_t n, double exponent) {
  EGP_CHECK(n > 0);
  probabilities_.resize(n);
  cumulative_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    probabilities_[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    total += probabilities_[i];
  }
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    probabilities_[i] /= total;
    acc += probabilities_[i];
    cumulative_[i] = acc;
  }
  cumulative_.back() = 1.0;
}

size_t ZipfDistribution::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  // Binary search the CDF.
  size_t lo = 0, hi = cumulative_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cumulative_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace egp
