// GEMM-free golden digests of every random stream that feeds a run before
// and around training: the synthetic MNIST/CIFAR-10 stand-ins (§VI-A), the
// label-skew and Dirichlet partitions, Alg. 3 grouping, per-round member
// gains, cohort samples, weight initialization, the Eq. (9) receiver noise
// and the realism substrate's churn phases and CSI error. None of it runs
// a GEMM, so a mismatch here points at a stream, not at training. They
// depend on the in-repo engine and distributions and on
// libm's log/sqrt/pow, so like every golden they are gated on glibc.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "channel/aircomp.hpp"
#include "channel/fading.hpp"
#include "channel/latency.hpp"
#include "core/grouping.hpp"
#include "data/data_stats.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "ml/zoo.hpp"
#include "sim/cluster.hpp"
#include "sim/substrate.hpp"
#include "support/golden.hpp"
#include "util/rng.hpp"

namespace airfedga {
namespace {

/// FNV-1a 64 over raw bytes, printed as 16 hex digits.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void span(std::span<const T> v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof n);
    bytes(v.data(), v.size_bytes());
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    span(std::span<const T>(v));
  }
  void u64(std::uint64_t x) { bytes(&x, sizeof x); }
  void f64(double x) { u64(std::bit_cast<std::uint64_t>(x)); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

void add_dataset(Digest& d, const data::Dataset& ds) {
  d.span(ds.xs.data());
  d.vec(ds.ys);
}

void add_partition(Digest& d, const data::Partition& p) {
  d.u64(p.size());
  for (const auto& shard : p) d.vec(shard);
}

TEST(StreamsGolden, SyntheticDatasets) {
  SKIP_UNLESS_GLIBC();
  Digest mnist, cifar;
  const data::TrainTest m = data::make_mnist_like(120, 40, 7);
  add_dataset(mnist, m.train);
  add_dataset(mnist, m.test);
  const data::TrainTest c = data::make_cifar10_like(60, 20, 8);
  add_dataset(cifar, c.train);
  add_dataset(cifar, c.test);
  EXPECT_EQ(mnist.hex(), "db40c04a9129960c");
  EXPECT_EQ(cifar.hex(), "018a6ce1b8077b89");
}

TEST(StreamsGolden, Partitions) {
  SKIP_UNLESS_GLIBC();
  const data::Dataset ds = data::make_synthetic_flat(8, {2000, 10, 1.0, 0.3, 11});
  Digest skew, dirichlet;
  util::Rng rng(12);
  add_partition(skew, data::partition_label_skew(ds, 20, rng));
  add_partition(skew, data::partition_label_skew(ds, 7, rng));
  for (const double alpha : {0.1, 0.5, 1.0, 2.5})
    add_partition(dirichlet, data::partition_dirichlet(ds, 20, alpha, rng));
  EXPECT_EQ(skew.hex(), "d6259c1432a43e57");
  EXPECT_EQ(dirichlet.hex(), "394eccd231d494f6");
}

TEST(StreamsGolden, Alg3GroupsAtOneHundredWorkers) {
  SKIP_UNLESS_GLIBC();
  constexpr std::size_t kWorkers = 100;
  const data::Dataset ds = data::make_synthetic_flat(8, {kWorkers * 20, 10, 1.0, 0.3, 21});
  util::Rng rng(21);
  const data::Partition partition = data::partition_label_skew(ds, kWorkers, rng);
  sim::ClusterModel::Config ccfg;
  ccfg.seed = 22;
  const std::vector<double> times = sim::ClusterModel(kWorkers, ccfg).local_times();
  core::GroupingConfig gcfg;
  const core::GroupingResult r =
      core::airfedga_grouping(data::DataStats(ds, partition), times, gcfg);
  Digest d;
  d.vec(times);
  d.u64(r.groups.size());
  for (const auto& g : r.groups) d.vec(g);
  d.f64(r.objective);
  d.f64(r.mean_emd);
  EXPECT_EQ(d.hex(), "671f51b63d951865");
}

TEST(StreamsGolden, MemberGainsAndCohortSamples) {
  SKIP_UNLESS_GLIBC();
  constexpr std::size_t kWorkers = 100000;
  channel::FadingChannel::Config fcfg;
  fcfg.seed = 31;
  fcfg.pathloss_exponent = 3.0;
  const channel::FadingChannel fading(kWorkers, fcfg);
  Digest gains, cohorts;
  gains.vec(fading.large_scale());
  std::vector<double> out;
  for (std::size_t round = 0; round < 20; ++round) {
    // The shape of SchedulingLoop::sample_cohort: one stream per round,
    // 32 positions drawn without replacement, then sorted.
    util::Rng rng(util::splitmix64(32 ^ (0xC04052ULL + round * 0x9E3779B1ULL)));
    auto members = rng.sample_without_replacement(kWorkers, 32);
    cohorts.vec(members);
    std::sort(members.begin(), members.end());
    fading.gains_of(members, round, out);
    gains.vec(out);
  }
  EXPECT_EQ(gains.hex(), "1a65d26ddfce8575");
  EXPECT_EQ(cohorts.hex(), "2c8df129a40d3580");
}

TEST(StreamsGolden, WeightInitAndReceiverNoise) {
  SKIP_UNLESS_GLIBC();
  Digest weights, noise;
  util::Rng rng(41);
  ml::Model cnn = ml::make_cnn_mnist(0.25, 12);
  cnn.init(rng);
  weights.vec(cnn.parameters());
  ml::Model mlp = ml::make_mlp(16, 4, 32);
  mlp.init(rng);
  weights.vec(mlp.parameters());
  const ml::Tensor t = ml::Tensor::randn({7, 13}, rng, 0.5f);
  weights.span(t.data());

  constexpr std::size_t kQ = 1000;
  std::vector<float> w_prev(kQ, 0.25f), w1(kQ, 1.0f), w2(kQ, -0.5f);
  channel::AirCompChannel air({.sigma0_sq = 0.3, .seed = 42});
  channel::AirCompChannel::Input in;
  in.w_prev = w_prev;
  in.local_models = {w1, w2};
  in.data_sizes = {30.0, 50.0};
  in.gains = {0.9, 1.3};
  in.total_data = 200.0;
  for (int round = 0; round < 3; ++round) {
    const auto o = air.aggregate(in);
    noise.vec(o.w_next);
    noise.f64(o.noise_energy);
  }
  EXPECT_EQ(weights.hex(), "fa3c0ad4c95d6e2e");
  EXPECT_EQ(noise.hex(), "66321ba0a2a2919f");
}

TEST(StreamsGolden, SubstrateChurnAndCsiError) {
  SKIP_UNLESS_GLIBC();
  constexpr std::size_t kWorkers = 1000;
  sim::SubstrateOptions opts;
  opts.churn = true;
  opts.csi_error = true;
  channel::FadingChannel::Config fcfg;
  fcfg.seed = 51;
  auto sub = sim::make_substrate(kWorkers, fcfg, channel::LatencyConfig{}, opts, 52);
  Digest d;
  for (std::size_t round = 0; round < 5; ++round) {
    d.vec(sub->gains(round));
    const auto scales = sub->csi_scales(round);
    d.span(scales);
  }
  for (std::size_t w = 0; w < kWorkers; ++w) d.f64(sub->next_transition(w, 10.0));
  EXPECT_EQ(d.hex(), "c5cb05b14b643a58");
}

}  // namespace
}  // namespace airfedga
