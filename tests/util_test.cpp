#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(42);
  Rng c1 = parent.fork(7);
  Rng c2 = parent.fork(7);
  Rng c3 = parent.fork(8);
  EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  EXPECT_NE(c1.uniform(), c3.uniform());
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(6);
  RunningStat st;
  for (int i = 0; i < 20000; ++i) st.push(rng.normal(1.0, 2.0));
  EXPECT_NEAR(st.mean(), 1.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, RayleighMeanMatchesTheory) {
  Rng rng(7);
  RunningStat st;
  const double scale = 0.8;
  for (int i = 0; i < 20000; ++i) st.push(rng.rayleigh(scale));
  // E[Rayleigh(s)] = s * sqrt(pi/2)
  EXPECT_NEAR(st.mean(), scale * std::sqrt(M_PI / 2.0), 0.02);
  EXPECT_GT(st.min(), 0.0);
}

TEST(Rng, RandintInclusiveBounds) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.randint(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(9);
  auto p = rng.permutation(100);
  std::vector<char> seen(100, 0);
  for (auto v : p) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(10);
  auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(11);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementRejectsPopulationsPast32Bits) {
  if constexpr (sizeof(std::size_t) > 4) {
    Rng rng(11);
    EXPECT_THROW(rng.sample_without_replacement(std::size_t{1} << 32, 1), std::invalid_argument);
  }
}

// The sampler's definition: shuffle all of 0, 1, ..., n - 1 and keep the
// first k entries.
std::vector<std::size_t> shuffled_prefix(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  rng.shuffle(p);
  p.resize(k);
  return p;
}

TEST(Rng, SampleWithoutReplacementIsTheShuffledPrefix) {
  // Same entries in the same order, and the engine left at the same word.
  std::vector<std::pair<std::size_t, std::size_t>> grid;
  for (const std::size_t n : {0, 1, 2, 3, 33, 100, 1000, 5000})
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n})
      if (k <= n) grid.emplace_back(n, k);
  grid.emplace_back(std::size_t{1} << 16, (std::size_t{1} << 15) + 1);  // ~n ln 2 / 2 hits
  grid.emplace_back(1000000, 32);
  SampleScratch scratch;  // shared by every call, as callers reuse it
  std::vector<std::size_t> got;
  for (const auto& [n, k] : grid) {
    for (const std::uint64_t seed : {3ULL, 0xC04052ULL, 0xFFFFFFFFFFFFULL}) {
      Rng ours(seed), oracle(seed);
      ours.sample_without_replacement(n, k, got, scratch);
      EXPECT_EQ(got, shuffled_prefix(oracle, n, k)) << "n " << n << " k " << k;
      EXPECT_EQ(ours.engine()(), oracle.engine()()) << "n " << n << " k " << k;
    }
  }
  Rng alloc(5), oracle(5);
  EXPECT_EQ(alloc.sample_without_replacement(1000, 32), shuffled_prefix(oracle, 1000, 32));
}

// ------------------------------------------------------------ Mt19937_64 --

const std::uint64_t kEngineSeeds[] = {0, 1, 5489, ~std::uint64_t{0}, splitmix64(42)};

TEST(Mt19937_64, MatchesTheStandardEngineWordForWord) {
  for (const std::uint64_t seed : kEngineSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 100000; ++i)
      if (ours() != ref()) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Mt19937_64, TenThousandthOutputOfTheDefaultSeedIsTheStandardValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-constructed
  // mt19937_64 produces 9981545732273789042.
  Mt19937_64 e;
  EXPECT_EQ(Mt19937_64::default_seed, 5489u);
  e.discard(9999);
  EXPECT_EQ(e(), 9981545732273789042ULL);
}

TEST(Mt19937_64, DiscardEqualsThatManyCalls) {
  constexpr unsigned long long kBlock = Mt19937_64::state_size;
  // From a fresh state, from a partly consumed block and from the end of a
  // block; skipping nothing, to the end of the block, into the next one and
  // across several.
  for (const unsigned long long drawn : {0ULL, 1ULL, 7ULL, kBlock - 1, kBlock}) {
    const unsigned long long left = kBlock - drawn;
    for (const unsigned long long z : {0ULL, 1ULL, left, left + 1, left + kBlock, left + 3 * kBlock,
                                       kBlock - 1, kBlock, kBlock + 1, 5 * kBlock + 17,
                                       1000000ULL}) {
      Mt19937_64 skipped(splitmix64(z + drawn)), stepped(splitmix64(z + drawn));
      for (unsigned long long i = 0; i < drawn; ++i) {
        skipped();
        stepped();
      }
      skipped.discard(z);
      for (unsigned long long i = 0; i < z; ++i) stepped();
      for (unsigned long long i = 0; i < kBlock + 3; ++i)
        ASSERT_EQ(skipped(), stepped()) << "drawn " << drawn << " z " << z << " word " << i;
    }
  }
}

TEST(Mt19937_64, ConsecutiveDiscardsEqualOne) {
  Mt19937_64 twice(9), once(9);
  twice.discard(100);
  twice.discard(212);  // to exactly the end of the first block
  twice.discard(0);
  twice.discard(700);
  once.discard(1012);
  for (int i = 0; i < 400; ++i) ASSERT_EQ(twice(), once()) << "word " << i;
}

// Draws `count` values of `dist` on each engine, comparing bit patterns.
template <typename Dist>
void expect_same_draws(Dist dist, std::uint64_t seed, int count = 20000) {
  Mt19937_64 ours(seed);
  std::mt19937_64 ref(seed);
  Dist dist_ref = dist;
  std::size_t mismatches = 0;
  for (int i = 0; i < count; ++i) {
    const auto a = dist(ours);
    const auto b = dist_ref(ref);
    if constexpr (std::is_floating_point_v<decltype(a)>) {
      if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) ++mismatches;
    } else {
      if (a != b) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  EXPECT_EQ(ours(), ref()) << "engines left at different positions, seed " << seed;
}

TEST(Mt19937_64, StdDistributionsDrawIdenticallyOnBothEngines) {
  for (const std::uint64_t seed : kEngineSeeds) {
    expect_same_draws(std::uniform_real_distribution<double>(0.0, 1.0), seed);
    expect_same_draws(
        std::uniform_real_distribution<double>(std::numeric_limits<double>::min(), 1.0), seed);
    expect_same_draws(std::normal_distribution<double>(0.0, 1.0), seed);
    expect_same_draws(std::normal_distribution<double>(1.0, 0.15), seed);
    expect_same_draws(std::uniform_int_distribution<std::int64_t>(5, 5), seed);
    expect_same_draws(std::uniform_int_distribution<std::int64_t>(0, (std::int64_t{1} << 32) - 1),
                      seed);
    expect_same_draws(std::uniform_int_distribution<std::int64_t>(0, 999999), seed);
    expect_same_draws(std::gamma_distribution<double>(0.5, 1.0), seed);
    expect_same_draws(std::gamma_distribution<double>(2.0, 1.0), seed);
  }
}

TEST(Mt19937_64, RngDrawsOneWordPerUniform) {
  // FadingChannel::gains_of skips to a worker's gain with discard(i):
  // that relies on uniform() (and so rayleigh()) consuming one word.
  Rng a(3), b(3);
  for (int i = 0; i < 1000; ++i) static_cast<void>(a.rayleigh());
  b.engine().discard(1000);
  EXPECT_EQ(a.engine()(), b.engine()());
}

// ---------------------------------------------------------- distributions --
//
// The in-repo draws (util::dist, util::Gamma, Rng::normal_fill) in three
// halves: an oracle half comparing them bit for bit with the libstdc++ they
// reproduce, a scripted half driving them with chosen words into the rare
// paths, and a pinned half of literal values that holds on every platform.

/// Splits `total` draws over these seeds.
const std::uint64_t kDrawSeeds[] = {1, 42, 0xDEADBEEF, splitmix64(7)};

#if defined(_GLIBCXX_RELEASE) && _GLIBCXX_RELEASE == 12
// The headers the draws were written from (bits/random.tcc and
// bits/uniform_int_dist.h of GCC 12); another release may draw differently.

/// Runs `ours` and `theirs` on engines of the same seed, `total` draws
/// over kDrawSeeds, and expects bit-equal results and engine positions.
template <typename Ours, typename Theirs>
void expect_oracle_match(const char* what, Ours ours, Theirs theirs, int total = 1 << 20) {
  for (const std::uint64_t seed : kDrawSeeds) {
    Mt19937_64 a(seed), b(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < total / 4; ++i) {
      const auto x = ours(a);
      const auto y = theirs(b);
      if constexpr (std::is_floating_point_v<decltype(x)>) {
        if (std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(y)) ++mismatches;
      } else {
        if (x != y) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << what << ", seed " << seed;
    EXPECT_EQ(a(), b()) << what << ": engines left at different positions, seed " << seed;
  }
}

TEST(DistOracle, CanonicalAndUniformMatchLibstdcxx) {
  expect_oracle_match(
      "canonical", [](Mt19937_64& g) { return dist::canonical(g); },
      [](Mt19937_64& g) { return std::generate_canonical<double, 53>(g); });
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0}, {std::numeric_limits<double>::min(), 1.0}, {1.0, 10.0}, {0.5, 2.0}, {0.0, 400.0}};
  for (const auto& [lo, hi] : ranges) {
    expect_oracle_match(
        "uniform", [lo, hi](Mt19937_64& g) { return dist::uniform(g, lo, hi); },
        [d = std::uniform_real_distribution<double>(lo, hi)](Mt19937_64& g) mutable {
          return d(g);
        });
  }
}

TEST(DistOracle, NormalMatchesAFreshLibstdcxxDistribution) {
  for (const auto& [mean, stddev] : {std::pair{0.0, 1.0}, std::pair{0.1, 0.3}}) {
    expect_oracle_match(
        "normal", [=](Mt19937_64& g) { return dist::normal(g, mean, stddev); },
        [=](Mt19937_64& g) { return std::normal_distribution<double>(mean, stddev)(g); });
  }
}

TEST(DistOracle, RandintMatchesLibstdcxx) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0},          {0, 1}, {0, 2}, {0, (std::int64_t{1} << 32) - 1}, {0, std::int64_t{1} << 32},
      {0, 999999},     {-5, 5}, {kMin, kMax}};
  for (const auto& [lo, hi] : ranges) {
    expect_oracle_match(
        "randint", [lo, hi](Mt19937_64& g) { return dist::randint(g, lo, hi); },
        [d = std::uniform_int_distribution<std::int64_t>(lo, hi)](Mt19937_64& g) mutable {
          return d(g);
        });
  }
}

TEST(DistOracle, PersistentGammaMatchesOneLibstdcxxObject) {
  for (const double alpha : {0.1, 0.5, 1.0, 2.5}) {
    expect_oracle_match(
        "gamma", [g = Gamma(alpha)](Mt19937_64& e) mutable { return g(e); },
        [d = std::gamma_distribution<double>(alpha, 1.0)](Mt19937_64& e) mutable { return d(e); });
  }
}
#endif  // _GLIBCXX_RELEASE == 12

TEST(Dist, NormalFillEqualsThatManyNormalCalls) {
  for (const std::uint64_t seed : kDrawSeeds) {
    // Sizes around the fill's internal block, and one spanning many blocks.
    for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 100000u}) {
      Rng filled(seed), called(seed);
      std::vector<double> out(n);
      filled.normal_fill(out, 0.1, 0.3);
      std::size_t mismatches = 0;
      for (double v : out)
        if (std::bit_cast<std::uint64_t>(v) !=
            std::bit_cast<std::uint64_t>(called.normal(0.1, 0.3)))
          ++mismatches;
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << ", n " << n;
      EXPECT_EQ(filled.engine()(), called.engine()()) << "seed " << seed << ", n " << n;

      // The float overload narrows the same values.
      Rng narrowed(seed), wide(seed);
      std::vector<float> f(n);
      narrowed.normal_fill(f, 0.1, 0.3);
      wide.normal_fill(out, 0.1, 0.3);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(f[i], static_cast<float>(out[i])) << i;
      EXPECT_EQ(narrowed.engine()(), wide.engine()()) << "seed " << seed << ", n " << n;
    }
  }
}

/// Returns a scripted word sequence, counting the words drawn.
struct ScriptedEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  std::vector<std::uint64_t> words;
  std::size_t drawn = 0;
  result_type operator()() { return words.at(drawn++); }
};

constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;  // canonical 0.5: a polar x or y of 0
constexpr std::uint64_t kTop = ~std::uint64_t{0};        // canonical just below 1

TEST(DistScripted, CanonicalClampsWordsThatRoundToOne) {
  const double below_one = std::nextafter(1.0, 0.0);
  // 2^64 - 2^10 ties to even, upwards, to 2^64; every word above it rounds
  // up too. Without the clamp these would return 1.0.
  for (const std::uint64_t w : {kTop, kTop - 1023, kTop - 1024}) {
    ScriptedEngine g{{w}};
    EXPECT_EQ(dist::canonical(g), below_one) << w;
  }
  ScriptedEngine zero{{0}};
  EXPECT_EQ(dist::canonical(zero), 0.0);
  ScriptedEngine half{{kHalf}};
  EXPECT_EQ(dist::canonical(half), 0.5);
}

TEST(DistScripted, CanonicalConvertsHighWordsLikeTheCompiler) {
  // Words with the top bit set take the conversion's slow path in the
  // compiler's branchy unsigned-to-double; the split halves must round the
  // same way, ties included.
  const std::uint64_t words[] = {kHalf + 1,         kHalf + 1024,          kHalf + 1025,
                                 kHalf + 3072,      0xFFFFFFFFFFFFF3FFull, 0x8000000000000BFFull,
                                 0x123456789ABCDEF0, 0xFEDCBA9876543210ull, 0x00000000FFFFFFFFull};
  for (const std::uint64_t w : words) {
    ScriptedEngine g{{w}};
    EXPECT_EQ(dist::canonical(g), std::min(static_cast<double>(w) * 0x1p-64,
                                           std::nextafter(1.0, 0.0)))
        << std::hex << w;
  }
}

TEST(DistScripted, PolarNormalRejectsTheCentreAndPointsOutsideTheDisc) {
  // (0, 0): r2 == 0, rejected. (~1, ~1): r2 > 1, rejected. Then a point
  // inside the disc: x = 2 * 0.25 - 1 = -0.5, y = 2 * 0.75 - 1 = 0.5.
  const std::uint64_t quarter = std::uint64_t{1} << 62;
  ScriptedEngine g{{kHalf, kHalf, kTop, kTop, quarter, 3 * quarter}};
  const double r2 = 0.5;
  const double expected = 0.5 * std::sqrt(-2 * std::log(r2) / r2) * 2.0 + 1.0;
  EXPECT_EQ(dist::normal(g, 1.0, 2.0), expected);
  EXPECT_EQ(g.drawn, 6u);

  ScriptedEngine filled{{kHalf, kHalf, kTop, kTop, quarter, 3 * quarter, quarter, 3 * quarter}};
  std::vector<double> out(2);
  dist::normal_fill(filled, out.size(), 1.0, 2.0, [&](std::size_t i, double v) { out[i] = v; });
  EXPECT_EQ(out[0], expected);
  EXPECT_EQ(out[1], expected);
  EXPECT_EQ(filled.drawn, 8u);

  // The persistent normal inside Gamma keeps the x half for its next call:
  // alpha = 1 accepts both draws here, so two gammas cost one polar point.
  ScriptedEngine twice{{quarter, 3 * quarter, kHalf, kHalf}};
  Gamma gamma(1.0);
  EXPECT_GT(gamma(twice), 0.0);
  EXPECT_EQ(twice.drawn, 3u);
  EXPECT_GT(gamma(twice), 0.0);
  EXPECT_EQ(twice.drawn, 4u);
}

TEST(DistScripted, RandintRetriesBelowTheLemireThreshold) {
  // Range 3: threshold = 2^64 mod 3 = 1, so only a product whose low word
  // is 0 retries; word 0 gives one. 3^-1 mod 2^64 gives low word 1 (kept,
  // no retry) and high word 2.
  const std::uint64_t inverse3 = 0xAAAAAAAAAAAAAAABull;
  ScriptedEngine g{{0, inverse3}};
  EXPECT_EQ(dist::randint(g, 0, 2), 2);
  EXPECT_EQ(g.drawn, 2u);
  ScriptedEngine once{{inverse3}};
  EXPECT_EQ(dist::randint(once, 10, 12), 12);
  EXPECT_EQ(once.drawn, 1u);
  // A range of one needs a word but never retries; the full range returns
  // the raw word shifted by lo.
  ScriptedEngine single{{0}};
  EXPECT_EQ(dist::randint(single, 5, 5), 5);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  ScriptedEngine full{{0, kTop}};
  EXPECT_EQ(dist::randint(full, kMin, kMax), kMin);
  EXPECT_EQ(dist::randint(full, kMin, kMax), kMax);
}

TEST(DistPinned, FirstEightDrawsAtSeed42) {
  // Literal values, so a platform without the oracle still checks them.
  const double uniform[] = {0x1.1e0c5b02ab5d4p-3, 0x1.f04ac971d9e1ep-1, 0x1.f0bd856c1255cp-1,
                            0x1.fd4e08fee9014p-3, 0x1.65026487c08e4p-1, 0x1.3fdeed0f6b3e2p-1,
                            0x1.92e6b92e6cd8p-2,  0x1.e69d96bcb13afp-2};
  const double uniform_1_10[] = {0x1.20e6f33180647p+1, 0x1.372a11500a8f1p+3, 0x1.376a9b0cca504p+3,
                                 0x1.9e7be50f6310bp+1, 0x1.d1a2b118b8ap+2,   0x1.a7dacab158a5ep+2,
                                 0x1.22a1c82a1d398p+2, 0x1.51b8a4ca23b12p+2};
  const double normal[] = {0x1.dda8fe97b98d1p-1,  -0x1.1e1317eddb868p-1, -0x1.28f4f2691ff79p+1,
                           0x1.2e7e9dd54409ep+0,  -0x1.575b732c6aabcp-3, -0x1.111147bd83046p-1,
                           -0x1.9ced92fb2408p+0,  0x1.0a0c05bdbafdcp+0};
  const double normal_01_03[] = {
      0x1.84feff27d5bbp-2,  -0x1.14fa9fd47542cp-4, -0x1.3125efb1598f8p-1, 0x1.d164bd6651a58p-2,
      0x1.972bdc3119986p-5, -0x1.eb86252741ae8p-5, -0x1.891d16c6f809ap-2, 0x1.a5a806e3ad308p-2};
  const std::int64_t randint[] = {139672, 969320, 970195, 248683, 697283, 624747, 393458, 475210};
  const double gamma_05[] = {0x1.202aae053745ap-1, 0x1.fd5904537c0cap-5, 0x1.1d15c3bb22c13p-7,
                             0x1.3bc36974fa727p-4, 0x1.759be69531416p-5, 0x1.8380b6d012491p+0,
                             0x1.7204b2270880bp-7, 0x1.7dcb889a1d8b7p-2};
  const double gamma_25[] = {0x1.ecdba2438da04p+1, 0x1.494453368731ap+2, 0x1.da71b20f97d77p-3,
                             0x1.fd3ff61bcf2dp-1,  0x1.eddbddfdc18e5p+0, 0x1.b8af79271b871p-1,
                             0x1.1bad42b1d153p-1,  0x1.6d99947419a1p+1};
  const double rayleigh[] = {0x1.fbf256ac5ea38p+0, 0x1.ff42e22417ec3p-3, 0x1.f7cd3865e73e7p-3,
                             0x1.ab1421857c97ap+0, 0x1.b2c9291a336f7p-1, 0x1.f09e16f7ae3f8p-1,
                             0x1.5da8b08231852p+0, 0x1.38470897d4c7bp+0};
  Rng u(42), u2(42), n(42), n2(42), r(42), ga(42), gb(42), ray(42), filled(42);
  Gamma g05(0.5), g25(2.5);
  std::vector<double> fill(8);
  filled.normal_fill(fill);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(u.uniform(), uniform[i]) << i;
    EXPECT_EQ(u2.uniform(1.0, 10.0), uniform_1_10[i]) << i;
    EXPECT_EQ(n.normal(), normal[i]) << i;
    EXPECT_EQ(fill[static_cast<std::size_t>(i)], normal[i]) << i;
    EXPECT_EQ(n2.normal(0.1, 0.3), normal_01_03[i]) << i;
    EXPECT_EQ(r.randint(0, 999999), randint[i]) << i;
    EXPECT_EQ(g05(ga.engine()), gamma_05[i]) << i;
    EXPECT_EQ(g25(gb.engine()), gamma_25[i]) << i;
    EXPECT_EQ(ray.rayleigh(), rayleigh[i]) << i;
  }
}

TEST(RunningStat, KnownSequence) {
  RunningStat st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.push(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_EQ(st.count(), 8u);
}

TEST(Quantile, EndpointsAndMedian) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Quantile, Interpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Quantile, RejectsBadInput) {
  std::vector<double> xs = {1.0};
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Boxplot, FiveNumberSummary) {
  std::vector<double> xs(101);
  std::iota(xs.begin(), xs.end(), 0.0);
  const auto b = boxplot(xs);
  EXPECT_DOUBLE_EQ(b.min, 0.0);
  EXPECT_DOUBLE_EQ(b.q1, 25.0);
  EXPECT_DOUBLE_EQ(b.median, 50.0);
  EXPECT_DOUBLE_EQ(b.q3, 75.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
}

TEST(MovingAverage, WindowBehaviour) {
  std::vector<double> xs = {1, 1, 1, 4, 4, 4};
  const auto m = moving_average(xs, 3);
  ASSERT_EQ(m.size(), xs.size());
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[2], 1.0);
  EXPECT_DOUBLE_EQ(m[3], 2.0);
  EXPECT_DOUBLE_EQ(m[5], 4.0);
}

TEST(MovingAverage, RejectsZeroWindow) {
  std::vector<double> xs = {1.0};
  EXPECT_THROW(moving_average(xs, 0), std::invalid_argument);
}

TEST(Table, AlignmentAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::fmt(1.23456, 2)});
  t.add_row({"b", Table::fmt_int(42)});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);

  const std::string path = testing::TempDir() + "/airfedga_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "name,value");
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvEscapesCommasAndQuotesAndReplacesTheFile) {
  // Sweep-suffixed scenario names can carry commas *and* quotes (string
  // sweep values are dumped as JSON), so cells must be RFC-4180 escaped:
  // wrapped in quotes with embedded quotes doubled.
  Table t({"name"});
  t.add_row({"s@partition.kind=\"a,b\""});
  const std::string path = testing::TempDir() + "/airfedga_table_esc_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);  // header
  std::getline(f, line);
  EXPECT_EQ(line, "\"s@partition.kind=\"\"a,b\"\"\"");

  // A second write replaces the file rather than accumulating rows.
  t.write_csv(path);
  std::ifstream again(path);
  std::size_t lines = 0;
  while (std::getline(again, line)) ++lines;
  EXPECT_EQ(lines, 2u);  // header + 1 row
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(
      hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialFallbackForSmallN) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(5, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count, 5);
}

TEST(ThreadPool, ZeroWorkItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(
      hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroWorkerPoolRunsSerially) {
  ThreadPool pool(0);
  std::size_t covered = 0;
  pool.parallel_for(
      100, [&](std::size_t b, std::size_t e) { covered += e - b; }, /*grain=*/1);
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPool, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 6 * 7; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, SubmitOnZeroWorkerPoolThrows) {
  // No thread would ever run the task, so its future could never be ready.
  ThreadPool pool(0);
  bool ran = false;
  EXPECT_THROW(pool.submit([&] { ran = true; }), std::logic_error);
  EXPECT_THROW(pool.submit_prioritized(5.0, [&] { ran = true; }), std::logic_error);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SubmittedTasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  auto f = pool.submit([] { return ThreadPool::on_worker_thread(); });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPool, NestedParallelForFallsBackToSerial) {
  // A task on a pool thread that fans out again would deadlock a saturated
  // pool; the nesting rule runs the inner loop serially instead.
  ThreadPool pool(2);
  auto f = pool.submit([&] {
    const auto me = std::this_thread::get_id();
    bool same_thread = true;
    pool.parallel_for(
        10000,
        [&](std::size_t, std::size_t) { same_thread &= std::this_thread::get_id() == me; },
        /*grain=*/1);
    return same_thread;
  });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPool, NestedParallelForInTheCallersChunkRunsSerially) {
  ThreadPool pool(2);
  const auto me = std::this_thread::get_id();
  bool inner_same_thread = true;
  std::atomic<int> outer_chunks{0};
  pool.parallel_for(
      3,
      [&](std::size_t begin, std::size_t) {
        ++outer_chunks;
        if (begin != 0) return;  // the caller's own chunk
        pool.parallel_for(
            10000,
            [&](std::size_t, std::size_t) {
              inner_same_thread &= std::this_thread::get_id() == me;
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(outer_chunks.load(), 3);
  EXPECT_TRUE(inner_same_thread);
}

TEST(ThreadPool, ParallelForRethrowsTheCallersChunkAfterTheOthersFinish) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(4000);
  const auto body = [&](std::size_t begin, std::size_t end) {
    if (begin == 0) throw std::runtime_error("caller's chunk");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  };
  EXPECT_THROW(pool.parallel_for(hits.size(), body, /*grain=*/16), std::runtime_error);
  for (std::size_t i = hits.size() / 4; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  // The calling thread's latch is free again.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(
      hits.size(), [&](std::size_t b, std::size_t e) { covered += e - b; }, /*grain=*/16);
  EXPECT_EQ(covered.load(), hits.size());
}

TEST(ThreadPool, SerialRegionSuppressesFanOut) {
  ThreadPool pool(3);
  const auto me = std::this_thread::get_id();
  bool same_thread = true;
  {
    ThreadPool::SerialRegion serial;
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    pool.parallel_for(
        10000,
        [&](std::size_t, std::size_t) { same_thread &= std::this_thread::get_id() == me; },
        /*grain=*/1);
  }
  EXPECT_TRUE(same_thread);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, PrioritizedTasksRunInDeadlineOrder) {
  ThreadPool pool(1);
  // Block the single worker so every submission below piles up in the
  // ready queue before anything is popped. Waiting for `started` ensures
  // the worker has dequeued the blocker (and not a later submission)
  // before anything else is enqueued.
  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([&started, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();

  // Executed by the single worker thread only, after the gate opens; reads
  // happen after the futures synchronize, so no lock is needed.
  std::vector<int> order;
  auto rec = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  std::vector<std::future<void>> fs;
  fs.push_back(pool.submit(rec(99)));                    // no deadline: runs last
  fs.push_back(pool.submit_prioritized(30.0, rec(30)));
  fs.push_back(pool.submit_prioritized(10.0, rec(10)));
  fs.push_back(pool.submit_prioritized(20.0, rec(20)));
  fs.push_back(pool.submit_prioritized(10.0, rec(11)));  // deadline tie: FIFO after 10
  gate.set_value();
  blocker.get();
  for (auto& f : fs) f.get();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 30, 99}));
}

TEST(ThreadPool, UrgentTasksJumpTheQueue) {
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([&started, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();  // the worker holds the blocker, not a later task

  std::vector<int> order;
  auto deadline = pool.submit_prioritized(1.0, [&order] { order.push_back(1); });
  auto plain = pool.submit([&order] { order.push_back(2); });
  auto urgent =
      pool.submit_prioritized(ThreadPool::kUrgent, [&order] { order.push_back(0); });
  gate.set_value();
  blocker.get();
  deadline.get();
  plain.get();
  urgent.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPool, RejectsNaNSchedulingKey) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.submit_prioritized(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  // The key is checked first, on every pool size: a bad key must not hide
  // behind the serial configuration.
  ThreadPool serial_pool(0);
  EXPECT_THROW(
      serial_pool.submit_prioritized(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
}

TEST(SplitMix, MixesDistinctInputs) {
  EXPECT_NE(splitmix64(1), splitmix64(2));
  EXPECT_NE(splitmix64(0), 0u);
}

TEST(LaneBudgetShare, SplitsBudgetAcrossJobs) {
  // Explicit budget: each job gets an equal share, floor division.
  EXPECT_EQ(lane_budget_share(0, 1, 8), 8u);
  EXPECT_EQ(lane_budget_share(0, 2, 8), 4u);
  EXPECT_EQ(lane_budget_share(0, 3, 8), 2u);
  // A job never asks for more than it requested.
  EXPECT_EQ(lane_budget_share(2, 2, 8), 2u);
  EXPECT_EQ(lane_budget_share(6, 2, 8), 4u);
  // Every job always gets at least one lane, even when oversubscribed.
  EXPECT_EQ(lane_budget_share(0, 16, 4), 1u);
  EXPECT_EQ(lane_budget_share(1, 1, 4), 1u);
  // jobs = 0 is treated as one job (degenerate caller input).
  EXPECT_EQ(lane_budget_share(0, 0, 8), 8u);
  // budget = 0 resolves to the hardware concurrency; the result is at
  // least one lane whatever the machine.
  EXPECT_GE(lane_budget_share(0, 1, 0), 1u);
  EXPECT_EQ(lane_budget_share(1, 4, 0), 1u);
}

TEST(LaneBudgetShare, ClampingAndDegenerateBudgets) {
  // Request exactly the share: no clamping either way.
  EXPECT_EQ(lane_budget_share(8, 1, 8), 8u);
  EXPECT_EQ(lane_budget_share(4, 2, 8), 4u);
  // Request above the share clamps to the share; far above too.
  EXPECT_EQ(lane_budget_share(5, 3, 8), 2u);
  EXPECT_EQ(lane_budget_share(1000000, 1, 8), 8u);
  // Exact division down to one lane per job, and past it.
  EXPECT_EQ(lane_budget_share(0, 8, 8), 1u);
  EXPECT_EQ(lane_budget_share(0, 9, 8), 1u);
  // A single-lane budget serializes every request.
  EXPECT_EQ(lane_budget_share(0, 1, 1), 1u);
  EXPECT_EQ(lane_budget_share(3, 2, 1), 1u);
  // jobs = 0 degenerates to one job even with clamping in play.
  EXPECT_EQ(lane_budget_share(3, 0, 8), 3u);
}

}  // namespace
}  // namespace airfedga::util
