#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "channel/fading.hpp"
#include "util/stats.hpp"

namespace airfedga::channel {
namespace {

// gains_of(members, round) must equal gains(round)[members] bit for bit.
void expect_member_gains_match(const FadingChannel& ch, const std::vector<std::size_t>& members,
                               std::size_t round) {
  const auto all = ch.gains(round);
  std::vector<double> out{-1.0};  // stale content must be overwritten
  ch.gains_of(members, round, out);
  ASSERT_EQ(out.size(), members.size());
  for (std::size_t j = 0; j < members.size(); ++j)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out[j]), std::bit_cast<std::uint64_t>(all[members[j]]))
        << "worker " << members[j] << " round " << round;
}

std::vector<std::size_t> sorted_sample(util::Rng& rng, std::size_t n, std::size_t k) {
  auto m = rng.sample_without_replacement(n, k);
  std::sort(m.begin(), m.end());
  return m;
}

TEST(Fading, DeterministicPerRound) {
  FadingChannel ch(10, {});
  const auto a = ch.gains(5);
  const auto b = ch.gains(5);
  EXPECT_EQ(a, b);
}

TEST(Fading, DiffersAcrossRounds) {
  FadingChannel ch(10, {});
  const auto a = ch.gains(1);
  const auto b = ch.gains(2);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] == b[i]) ++same;
  EXPECT_EQ(same, 0u);
}

TEST(Fading, DiffersAcrossSeeds) {
  FadingChannel::Config c1;
  c1.seed = 1;
  FadingChannel::Config c2;
  c2.seed = 2;
  FadingChannel a(5, c1), b(5, c2);
  EXPECT_NE(a.gains(0), b.gains(0));
}

TEST(Fading, MinGainTruncationHolds) {
  FadingChannel::Config cfg;
  cfg.min_gain = 0.5;
  FadingChannel ch(100, cfg);
  for (std::size_t round = 0; round < 50; ++round)
    for (double h : ch.gains(round)) EXPECT_GE(h, 0.5);
}

TEST(Fading, RayleighMeanApproximatelyOne) {
  FadingChannel::Config cfg;
  cfg.min_gain = 0.0;
  FadingChannel ch(100, cfg);
  util::RunningStat st;
  for (std::size_t round = 0; round < 200; ++round)
    for (double h : ch.gains(round)) st.push(h);
  // Default scale 0.7979 gives E[h] = 0.7979 * sqrt(pi/2) ~= 1.0.
  EXPECT_NEAR(st.mean(), 1.0, 0.02);
}

TEST(Fading, SingleGainMatchesVector) {
  FadingChannel ch(7, {});
  const auto v = ch.gains(3);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(ch.gain(i, 3), v[i]);
}

TEST(Fading, MemberGainsAreBitwiseTheFullVectorsEntries) {
  constexpr std::size_t n = 1000;
  FadingChannel ch(n, {});
  std::vector<std::size_t> everyone(n);
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  util::Rng rng(17);
  for (std::size_t round : {0, 1, 2, 311, 312, 9999}) {
    expect_member_gains_match(ch, {0}, round);
    expect_member_gains_match(ch, {n - 1}, round);
    expect_member_gains_match(ch, {310, 311, 312, 313, 623, 624}, round);  // twist edges
    expect_member_gains_match(ch, everyone, round);
    for (std::size_t k : {1, 2, 32, 500, 999})
      expect_member_gains_match(ch, sorted_sample(rng, n, k), round);
  }
}

TEST(Fading, MemberGainsOfA32MemberCohortAmong100k) {
  constexpr std::size_t n = 100000;
  FadingChannel ch(n, {});
  util::Rng rng(23);
  for (std::size_t round : {0, 7, 20})
    expect_member_gains_match(ch, sorted_sample(rng, n, 32), round);
}

TEST(Fading, MemberGainsMatchUnderPathLossAndAClampingFloor) {
  constexpr std::size_t n = 400;
  FadingChannel::Config cfg;
  cfg.pathloss_exponent = 3.0;
  cfg.min_gain = 0.6;  // clamps a good share of the draws
  FadingChannel ch(n, cfg);
  util::Rng rng(29);
  std::size_t clamped = 0;
  for (std::size_t round = 0; round < 6; ++round) {
    const auto m = sorted_sample(rng, n, 60);
    expect_member_gains_match(ch, m, round);
    std::vector<double> out;
    ch.gains_of(m, round, out);
    clamped += static_cast<std::size_t>(std::count(out.begin(), out.end(), cfg.min_gain));
  }
  EXPECT_GT(clamped, 0u);
  EXPECT_LT(clamped, 6u * 60u);
}

TEST(Fading, MemberGainsRejectUnsortedRepeatedAndOutOfRangeIds) {
  FadingChannel ch(10, {});
  std::vector<double> out{1.0};
  ch.gains_of({}, 0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_THROW(ch.gains_of(std::vector<std::size_t>{3, 1}, 0, out), std::invalid_argument);
  EXPECT_THROW(ch.gains_of(std::vector<std::size_t>{2, 2}, 0, out), std::invalid_argument);
  EXPECT_THROW(ch.gains_of(std::vector<std::size_t>{10}, 0, out), std::out_of_range);
  EXPECT_THROW(ch.gains_of(std::vector<std::size_t>{1, 10}, 0, out), std::out_of_range);
  // Range is checked before the stream walks past the last worker.
  EXPECT_THROW(ch.gains_of(std::vector<std::size_t>{12, 3}, 0, out), std::out_of_range);
}

TEST(Fading, PathLossDisabledByDefault) {
  FadingChannel ch(5, {});
  for (double s : ch.large_scale()) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(Fading, PathLossScalesAverageGainWithDistance) {
  FadingChannel::Config cfg;
  cfg.pathloss_exponent = 3.0;
  cfg.distance_min = 0.5;
  cfg.distance_max = 2.0;
  cfg.min_gain = 0.0;
  FadingChannel ch(200, cfg);

  // Large-scale factors are within the analytic envelope d^(-alpha/2).
  const double hi = std::pow(0.5, -1.5);
  const double lo = std::pow(2.0, -1.5);
  for (double s : ch.large_scale()) {
    EXPECT_GE(s, lo - 1e-12);
    EXPECT_LE(s, hi + 1e-12);
  }

  // A worker's empirical mean gain over many rounds tracks its factor.
  util::RunningStat near_stat, far_stat;
  std::size_t near = 0, far = 0;
  for (std::size_t i = 1; i < 200; ++i) {
    if (ch.large_scale()[i] > ch.large_scale()[near]) near = i;
    if (ch.large_scale()[i] < ch.large_scale()[far]) far = i;
  }
  for (std::size_t round = 0; round < 300; ++round) {
    const auto g = ch.gains(round);
    near_stat.push(g[near]);
    far_stat.push(g[far]);
  }
  const double expected_ratio = ch.large_scale()[near] / ch.large_scale()[far];
  EXPECT_NEAR(near_stat.mean() / far_stat.mean(), expected_ratio, 0.15 * expected_ratio);
}

TEST(Fading, PathLossIsStaticAcrossRounds) {
  FadingChannel::Config cfg;
  cfg.pathloss_exponent = 2.0;
  FadingChannel a(10, cfg), b(10, cfg);
  EXPECT_EQ(a.large_scale(), b.large_scale());
}

TEST(Fading, VanishingScaleCollapsesToTheMinGainFloor) {
  // Zero-variance limit: as the Rayleigh scale vanishes every draw falls
  // below the floor, so the channel degenerates to a constant min_gain —
  // the distribution edge the power-control divisor must survive.
  FadingChannel::Config cfg;
  cfg.rayleigh_scale = 1e-12;
  cfg.min_gain = 0.15;
  FadingChannel ch(50, cfg);
  for (std::size_t round = 0; round < 20; ++round)
    for (double h : ch.gains(round)) EXPECT_DOUBLE_EQ(h, 0.15);
}

TEST(Fading, EqualDistancesGiveOneLargeScaleFactor) {
  // Degenerate geometry: distance_min == distance_max pins every worker to
  // the same path-loss factor d^(-alpha/2), with fading still varying.
  FadingChannel::Config cfg;
  cfg.pathloss_exponent = 2.0;
  cfg.distance_min = 2.0;
  cfg.distance_max = 2.0;
  FadingChannel ch(20, cfg);
  const double factor = std::pow(2.0, -1.0);
  for (double s : ch.large_scale()) EXPECT_DOUBLE_EQ(s, factor);
  EXPECT_NE(ch.gains(1), ch.gains(2));
}

TEST(Fading, SingleWorkerChannelIsWellFormed) {
  // Single-worker cluster: one gain per round, still round-varying and
  // deterministic — the smallest population the substrate can carry.
  FadingChannel ch(1, {});
  const auto a = ch.gains(0);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_GT(a[0], 0.0);
  EXPECT_EQ(ch.gains(0), a);
  EXPECT_NE(ch.gains(1), a);
  EXPECT_DOUBLE_EQ(ch.gain(0, 0), a[0]);
}

TEST(Fading, ZeroMinGainKeepsDrawsPositive) {
  // min_gain = 0 removes the floor; Rayleigh draws are still positive
  // almost surely, so downstream 1/h stays finite.
  FadingChannel::Config cfg;
  cfg.min_gain = 0.0;
  FadingChannel ch(100, cfg);
  for (std::size_t round = 0; round < 20; ++round)
    for (double h : ch.gains(round)) EXPECT_GT(h, 0.0);
}

TEST(Fading, PathLossValidation) {
  FadingChannel::Config bad;
  bad.pathloss_exponent = -1.0;
  EXPECT_THROW(FadingChannel(1, bad), std::invalid_argument);
  bad = {};
  bad.pathloss_exponent = 2.0;
  bad.distance_min = 0.0;
  EXPECT_THROW(FadingChannel(1, bad), std::invalid_argument);
  bad.distance_min = 2.0;
  bad.distance_max = 1.0;
  EXPECT_THROW(FadingChannel(1, bad), std::invalid_argument);
}

TEST(Fading, Validation) {
  EXPECT_THROW(FadingChannel(0, {}), std::invalid_argument);
  FadingChannel::Config bad;
  bad.rayleigh_scale = 0.0;
  EXPECT_THROW(FadingChannel(1, bad), std::invalid_argument);
  FadingChannel ch(2, {});
  EXPECT_THROW(static_cast<void>(ch.gain(2, 0)), std::out_of_range);
}

}  // namespace
}  // namespace airfedga::channel
