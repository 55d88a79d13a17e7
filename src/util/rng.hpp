#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace airfedga::util {

/// The standard 64-bit Mersenne Twister, MT19937-64: the engine the C++
/// standard names `mt19937_64` ([rand.predef]), with the same seeding
/// recurrence, constants and tempering, so it emits the same words for
/// every seed on every standard library. Owning it pins every stream in the
/// repo to one specified sequence and lets the twist be branch-free: the
/// conditional `(y & 1) ? a : 0` of the reference algorithm becomes the
/// mask `(0 - (y & 1)) & a`, which does not mispredict on the random low
/// bit. Satisfies UniformRandomBitGenerator, so `std::*_distribution` run
/// on it unchanged.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= state_size) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// Advances the stream by `z` words without tempering them; equivalent
  /// to `z` calls of operator().
  void discard(unsigned long long z) {
    while (z > state_size - pos_) {
      z -= state_size - pos_;
      twist();
    }
    pos_ += static_cast<std::size_t>(z);
  }

 private:
  void twist();

  std::array<result_type, state_size> state_{};
  std::size_t pos_ = state_size;
};

/// Seeded pseudo-random number generator used everywhere in the library.
///
/// All stochastic components (channel fading, noise, data synthesis, weight
/// initialization, heterogeneity factors) draw from an explicit `Rng` so
/// that every experiment is reproducible from a single master seed.
/// Independent sub-streams are derived with `fork`, which uses SplitMix64
/// on the parent seed so forked streams are decorrelated from the parent
/// and from each other.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derives an independent child generator. Calling `fork(tag)` twice with
  /// the same tag on the same parent yields identical child streams.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (optionally scaled/shifted).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Rayleigh-distributed magnitude with the given scale parameter.
  /// If X,Y ~ N(0, scale^2) then sqrt(X^2 + Y^2) ~ Rayleigh(scale).
  double rayleigh(double scale = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial.
  bool coin(double p_true = 0.5);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(randint(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// `sample_without_replacement` into a reused vector (no allocation at
  /// steady capacity; identical draws to the allocating overload).
  void sample_without_replacement(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

  /// Seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The underlying engine, for std distributions and for skipping ahead
  /// with `discard`. Its words are standard-specified; what a distribution
  /// makes of them is the standard library's. `uniform()` (and so
  /// `rayleigh()`) consumes exactly one word per draw, which lets a caller
  /// skip to the i-th draw of a stream with `discard(i)`; `normal()` may
  /// consume a variable number of words.
  Mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Mt19937_64 engine_;
};

/// SplitMix64 mixing step; used for seed derivation.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace airfedga::util
