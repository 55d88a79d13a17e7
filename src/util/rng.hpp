#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

// The draws below round every product and sum on its own, as libstdc++'s
// do; a fused multiply-add would change their last bits. The build turns
// contraction off on every target (CMakeLists.txt); under clang each draw
// also turns it off for its own body, whatever the flags.
#if defined(__clang__)
#define AIRFEDGA_NO_FP_CONTRACT _Pragma("clang fp contract(off)")
#else
#define AIRFEDGA_NO_FP_CONTRACT
#endif

namespace airfedga::util {

/// The standard 64-bit Mersenne Twister, MT19937-64: the engine the C++
/// standard names `mt19937_64` ([rand.predef]), with the same seeding
/// recurrence, constants and tempering, so it emits the same words for
/// every seed on every standard library. Owning it pins every stream in the
/// repo to one specified sequence and lets the twist be branch-free: the
/// conditional `(y & 1) ? a : 0` of the reference algorithm becomes the
/// mask `(0 - (y & 1)) & a`, which does not mispredict on the random low
/// bit. Each 312-word block is tempered in one vectorizable pass when it is
/// twisted, into a second array, so `operator()` is a load; `discard`
/// twists the blocks it skips without tempering them. Satisfies
/// UniformRandomBitGenerator, so the std distributions run on it unchanged
/// (the tests use them as the oracle for `dist`).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= state_size) {
      twist();
      temper();
    }
    return out_[pos_++];
  }

  /// Advances the stream by `z` words; equivalent to `z` calls of
  /// operator(). Only the block it stops in is tempered.
  void discard(unsigned long long z) {
    if (z <= state_size - pos_) {
      pos_ += static_cast<std::size_t>(z);
      return;
    }
    do {
      z -= state_size - pos_;
      twist();
    } while (z > state_size);
    temper();
    pos_ = static_cast<std::size_t>(z);
  }

 private:
  void twist();   ///< next block of state_; pos_ = 0
  void temper();  ///< out_ = the tempered state_

  std::array<result_type, state_size> state_{};
  std::array<result_type, state_size> out_{};
  std::size_t pos_ = state_size;
};

/// The distributions every stream in the repo draws through, written out so
/// that no digest depends on the standard library. Each reproduces GCC 12
/// libstdc++ (bits/random.tcc, bits/uniform_int_dist.h) bit for bit on a
/// full-range 64-bit engine: the same words consumed, the same doubles
/// returned (`tests/util_test.cpp` checks them against the std
/// distributions). Only libm's `log`/`sqrt`/`pow` remain outside the repo.
/// `G` is any engine whose `operator()` returns a uniform 64-bit word.
namespace dist {

/// The standard's canonical [0, 1) draw of a 53-bit double, which takes
/// one 64-bit word w here: double(w) * 2^-64, clamped below 1. The word is
/// converted as two exact 32-bit halves joined by one correctly rounded
/// add: the value the compiler's branchy unsigned conversion gives, without
/// its mispredicted sign-bit test.
template <typename G>
double canonical(G& g) {
  const std::uint64_t w = g();
  const double d = static_cast<double>(static_cast<std::uint32_t>(w >> 32)) * 0x1p32 +
                   static_cast<double>(static_cast<std::uint32_t>(w));
  // Words of 2^64 - 2^10 and above round to 2^64, i.e. to 1.0 after scaling.
  return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// `uniform_real_distribution<double>(lo, hi)`: one word.
template <typename G>
double uniform(G& g, double lo, double hi) {
  AIRFEDGA_NO_FP_CONTRACT
  return canonical(g) * (hi - lo) + lo;
}

/// An accepted point (x, y) of Marsaglia's polar method, with r2 = x^2 + y^2.
struct PolarPoint {
  double x, y, r2;
};

/// Draws pairs of words until the point falls strictly inside the unit
/// disc, minus its centre.
template <typename G>
PolarPoint polar_point(G& g) {
  AIRFEDGA_NO_FP_CONTRACT
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * canonical(g) - 1.0;
    y = 2.0 * canonical(g) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  return {x, y, r2};
}

/// The polar method's multiplier: both x * m and y * m are N(0, 1).
inline double polar_multiplier(double r2) { return std::sqrt(-2 * std::log(r2) / r2); }

/// A fresh `normal_distribution<double>(mean, stddev)`'s first draw: the y
/// half of one polar point. The x half is dropped, as a distribution built
/// for a single call drops its saved value.
template <typename G>
double normal(G& g, double mean, double stddev) {
  AIRFEDGA_NO_FP_CONTRACT
  const PolarPoint p = polar_point(g);
  const double ret = p.y * polar_multiplier(p.r2);
  return ret * stddev + mean;
}

/// `n` calls of `normal(g, mean, stddev)`, handing the i-th value to
/// `sink(i, value)` in order: the same words, values and final stream
/// position. Runs the rejection loop over a block first and the
/// log/sqrt/divide pass after it, so the math no longer waits on the
/// rejection branch. The loop writes every point and advances past it only
/// if accepted, so the ~21% rejections cost no mispredicted branches.
template <typename G, typename Sink>
void normal_fill(G& g, std::size_t n, double mean, double stddev, Sink&& sink) {
  AIRFEDGA_NO_FP_CONTRACT
  constexpr std::size_t kBlock = 256;
  std::array<double, kBlock> y{}, r2{};
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    for (std::size_t i = 0; i < len;) {
      const double px = 2.0 * canonical(g) - 1.0;
      const double py = 2.0 * canonical(g) - 1.0;
      const double pr2 = px * px + py * py;
      y[i] = py;
      r2[i] = pr2;
      i += static_cast<std::size_t>(!(pr2 > 1.0) & !(pr2 == 0.0));
    }
    for (std::size_t i = 0; i < len; ++i)
      sink(base + i, y[i] * polar_multiplier(r2[i]) * stddev + mean);
  }
}

/// `uniform_int_distribution<int64_t>(lo, hi)` (lo <= hi): Lemire's
/// nearly divisionless down-scaling with a 128-bit product, retrying below
/// the `-range % range` threshold; the full int64 range is the raw word.
template <typename G>
std::int64_t randint(G& g, std::int64_t lo, std::int64_t hi) {
  __extension__ typedef unsigned __int128 u128;
  const auto ulo = static_cast<std::uint64_t>(lo);
  const std::uint64_t urange = static_cast<std::uint64_t>(hi) - ulo;
  if (urange == ~std::uint64_t{0}) return static_cast<std::int64_t>(g() + ulo);
  const std::uint64_t range = urange + 1;
  u128 product = u128{g()} * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = -range % range;
    while (low < threshold) {
      product = u128{g()} * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(product >> 64) + ulo);
}

}  // namespace dist

/// `gamma_distribution<double>(alpha, 1)` as one long-lived object:
/// Marsaglia–Tsang, with the `pow(u, 1/alpha)` boost for alpha < 1. Like
/// the std distribution it owns a persistent polar normal whose saved x
/// half serves the next normal it needs, so successive draws of one object
/// differ from draws of fresh objects.
class Gamma {
 public:
  explicit Gamma(double alpha)
      : alpha_(alpha),
        malpha_(alpha < 1.0 ? alpha + 1.0 : alpha),
        a1_(malpha_ - 1.0 / 3.0),
        a2_(1.0 / std::sqrt(9.0 * a1_)) {}

  template <typename G>
  double operator()(G& g) {
    AIRFEDGA_NO_FP_CONTRACT
    double u = 0.0, v = 0.0, n = 0.0;
    do {
      do {
        n = next_normal(g);
        v = 1.0 + a2_ * n;
      } while (v <= 0.0);
      v = v * v * v;
      u = dist::canonical(g);
    } while (u > 1.0 - 0.0331 * n * n * n * n &&
             std::log(u) > (0.5 * n * n + a1_ * (1.0 - v + std::log(v))));
    if (alpha_ == malpha_) return a1_ * v;
    do {
      u = dist::canonical(g);
    } while (u == 0.0);
    return std::pow(u, 1.0 / alpha_) * a1_ * v;
  }

 private:
  template <typename G>
  double next_normal(G& g) {
    if (saved_available_) {
      saved_available_ = false;
      return saved_;
    }
    const dist::PolarPoint p = dist::polar_point(g);
    const double mult = dist::polar_multiplier(p.r2);
    saved_ = p.x * mult;
    saved_available_ = true;
    return p.y * mult;
  }

  double alpha_, malpha_, a1_, a2_;
  double saved_ = 0.0;
  bool saved_available_ = false;
};

/// The buffers `Rng::sample_without_replacement` works in, kept by the
/// caller so that repeated draws reuse them.
struct SampleScratch {
  std::vector<std::uint32_t> log;   ///< the tail's swap targets, in draw order
  std::vector<std::uint64_t> bits;  ///< followed positions as an n-bit set; zero between calls
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
  double uniform(double lo = 0.0, double hi = 1.0) { return dist::uniform(engine_, lo, hi); }

  /// Standard normal (optionally scaled/shifted).
  double normal(double mean = 0.0, double stddev = 1.0) {
    return dist::normal(engine_, mean, stddev);
  }

  /// Fills `out` with `out.size()` calls' worth of `normal(mean, stddev)`:
  /// the same values and the same stream position afterwards, faster.
  void normal_fill(std::span<double> out, double mean = 0.0, double stddev = 1.0) {
    dist::normal_fill(engine_, out.size(), mean, stddev,
                      [out](std::size_t i, double v) { out[i] = v; });
  }

  /// `normal_fill` narrowed to float, value by value.
  void normal_fill(std::span<float> out, double mean = 0.0, double stddev = 1.0) {
    dist::normal_fill(engine_, out.size(), mean, stddev,
                      [out](std::size_t i, double v) { out[i] = static_cast<float>(v); });
  }

  /// Rayleigh-distributed magnitude with the given scale parameter.
  /// If X,Y ~ N(0, scale^2) then sqrt(X^2 + Y^2) ~ Rayleigh(scale).
  double rayleigh(double scale = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t randint(std::int64_t lo, std::int64_t hi) { return dist::randint(engine_, lo, hi); }

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

  /// Samples `k` distinct indices from [0, n) without replacement: the
  /// first `k` entries of `shuffle` applied to 0, 1, ..., n - 1, in that
  /// order, leaving the engine where that shuffle leaves it. Requires
  /// n < 2^32.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// `sample_without_replacement` into reused buffers: the same draws, and
  /// no allocation once `out` and `scratch` have grown to the call's size.
  void sample_without_replacement(std::size_t n, std::size_t k, std::vector<std::size_t>& out,
                                  SampleScratch& scratch);

  /// Seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The underlying engine, for the `dist` draws and `Gamma`, and for
  /// skipping ahead with `discard`. `uniform()` (and so `rayleigh()`)
  /// consumes exactly one word per draw, which lets a caller skip to the
  /// i-th draw of a stream with `discard(i)`; `normal()` may consume a
  /// variable number of words.
  Mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Mt19937_64 engine_;
};

/// SplitMix64 mixing step; used for seed derivation.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace airfedga::util
