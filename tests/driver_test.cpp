#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "fl/driver.hpp"
#include "ml/zoo.hpp"

namespace airfedga::fl {
namespace {

struct Env {
  data::Dataset train;
  data::Dataset test;
  FLConfig cfg;

  explicit Env(std::uint64_t seed = 60) {
    train = data::make_synthetic_flat(16, {400, 4, 1.0, 0.3, seed});
    test = data::make_synthetic_flat(16, {200, 4, 1.0, 0.3, seed});
    util::Rng rng(seed);
    cfg.train = &train;
    cfg.test = &test;
    cfg.partition = data::partition_iid(train, 8, rng);
    cfg.model_factory = [] { return ml::make_softmax_regression(16, 4); };
    cfg.seed = seed;
    cfg.eval_samples = 200;
  }
};

TEST(Driver, ConstructionBuildsWorkersAndStats) {
  Env env;
  Driver d(env.cfg);
  EXPECT_EQ(d.num_workers(), 8u);
  EXPECT_EQ(d.model_dim(), 16u * 4 + 4);
  EXPECT_EQ(d.stats().total_size(), 400u);
}

TEST(Driver, InitialModelDeterministicPerSeed) {
  Env a(61), b(61), c(62);
  Driver da(a.cfg), db(b.cfg), dc(c.cfg);
  EXPECT_EQ(da.initial_model(), db.initial_model());
  EXPECT_NE(da.initial_model(), dc.initial_model());
}

TEST(Driver, EvaluateMatchesDirectModelEvaluation) {
  Env env;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  const auto r1 = d.evaluate(w);

  ml::Model m = env.cfg.model_factory();
  m.set_parameters(w);
  std::vector<std::size_t> idx(env.cfg.eval_samples);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  ml::Tensor xs = ml::gather_rows(env.test.xs, idx);
  std::span<const int> ys(env.test.ys.data(), env.cfg.eval_samples);
  const auto r2 = m.evaluate(xs, ys, env.cfg.eval_batch);
  EXPECT_NEAR(r1.loss, r2.loss, 1e-9);
  EXPECT_NEAR(r1.accuracy, r2.accuracy, 1e-12);
}

TEST(Driver, PowerForGroupRequiresTrainedMembers) {
  Env env;
  Driver d(env.cfg);
  EXPECT_THROW(d.power_for_group({0, 1}, 1), std::logic_error);

  const auto w = d.initial_model();
  d.train_workers({0, 1}, w);
  const auto pc = d.power_for_group({0, 1}, 1);
  EXPECT_GT(pc.sigma, 0.0);
  EXPECT_GT(pc.eta, 0.0);
}

TEST(Driver, AircompAggregatePairsEachMemberWithItsOwnGainInAnyOrder) {
  // aircomp_aggregate fetches gains through one sorted member-only query
  // and maps them back to the caller's member order. Each member's Eq. (7)
  // transmit energy depends on its own gain, so the per-worker charges
  // must not depend on the order (or repeats) the members arrive in.
  const std::vector<std::vector<std::size_t>> orders = {{1, 3, 5}, {5, 1, 3}, {3, 5, 1, 3}};
  std::vector<std::vector<double>> spent;
  for (const auto& members : orders) {
    Env env;
    env.cfg.substrate.energy = true;
    env.cfg.substrate.energy_budget = 1000.0;
    Driver d(env.cfg);
    const auto w = d.initial_model();
    d.train_workers({1, 3, 5}, w);
    double energy = 0.0;
    static_cast<void>(d.aircomp_aggregate(members, w, 3, energy));
    std::vector<double> per_worker;
    for (std::size_t m : {1, 3, 5}) {
      const double charged = env.cfg.substrate.energy_budget - d.substrate().remaining_joules(m);
      const auto uploads = std::count(members.begin(), members.end(), m);
      per_worker.push_back(charged / static_cast<double>(uploads));
    }
    spent.push_back(per_worker);
  }
  EXPECT_NE(spent[0][0], spent[0][1]);  // the gains differ, so the charges do
  EXPECT_EQ(spent[1], spent[0]);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(spent[2][i], spent[0][i], 1e-9 * spent[0][i]);
}

TEST(Driver, AircompAggregateAccumulatesEnergyWithinCaps) {
  Env env;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  std::vector<std::size_t> members = {0, 1, 2};
  d.train_workers(members, w);

  double energy = 0.0;
  const auto w_next = d.aircomp_aggregate(members, w, 1, energy);
  EXPECT_EQ(w_next.size(), w.size());
  EXPECT_GT(energy, 0.0);
  EXPECT_LE(energy, static_cast<double>(members.size()) * env.cfg.energy_cap * (1 + 1e-9));
}

TEST(Driver, OmaAggregateIsExactWeightedAverage) {
  Env env;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  std::vector<std::size_t> everyone(d.num_workers());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  d.train_workers(everyone, w);

  const auto agg = d.oma_aggregate(everyone, w);
  // Full participation: result = sum_i alpha_i w_i exactly.
  std::vector<double> expect(w.size(), 0.0);
  for (auto m : everyone) {
    const double alpha = d.stats().alpha(m);
    const auto wm = d.worker(m).local_model();
    for (std::size_t i = 0; i < wm.size(); ++i) expect[i] += alpha * wm[i];
  }
  for (std::size_t i = 0; i < agg.size(); ++i) EXPECT_NEAR(agg[i], expect[i], 1e-5);
}

TEST(Driver, RecycledWorkerReplaysItsRngStream) {
  // Worker 0 trains three cycles, loses its pool slot to 20 other workers,
  // and trains once more: the rematerialized worker must continue its
  // private RNG stream exactly where a never-recycled worker would be.
  Env env;
  env.cfg.population = 40;
  env.cfg.batch_size = 8;  // < the 50-sample shards, so every step draws from the RNG
  env.cfg.local_steps = 2;
  env.cfg.threads = 2;
  Driver d(env.cfg);
  const auto w0 = d.initial_model();
  for (int cycle = 0; cycle < 3; ++cycle) {
    d.train_workers({0}, w0);
    d.release_workers({0});
  }
  std::vector<std::size_t> others(20);
  std::iota(others.begin(), others.end(), std::size_t{1});
  d.train_workers(others, w0);
  d.release_workers(others);
  ASSERT_FALSE(d.worker_materialized(0));
  d.train_workers({0}, w0);

  Worker reference(0, env.train, env.cfg.partition[0], util::Rng(env.cfg.seed).fork(1000));
  ml::Model scratch = env.cfg.model_factory();
  for (int cycle = 0; cycle < 4; ++cycle)
    reference.local_update(scratch, w0, env.cfg.learning_rate, env.cfg.local_steps,
                           env.cfg.batch_size);
  const auto got = d.worker(0).local_model();
  const auto want = reference.local_model();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0);
}

TEST(Driver, MaybeRecordFollowsCadence) {
  Env env;
  env.cfg.eval_every = 3;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  Metrics m;
  for (std::size_t round = 1; round <= 7; ++round)
    d.maybe_record(m, round, static_cast<double>(round), 0.0, 0.0, w);
  // Rounds 1, 3, 6 recorded.
  ASSERT_EQ(m.points().size(), 3u);
  EXPECT_EQ(m.points()[0].round, 1u);
  EXPECT_EQ(m.points()[1].round, 3u);
  EXPECT_EQ(m.points()[2].round, 6u);
}

TEST(Driver, ShouldStopNeedsThreeEvals) {
  Env env;
  env.cfg.stop_at_accuracy = 0.5;
  Driver d(env.cfg);
  Metrics m;
  m.record({1.0, 1, 0.1, 0.9, 0, 0});
  EXPECT_FALSE(d.should_stop(m));
  m.record({2.0, 2, 0.1, 0.9, 0, 0});
  EXPECT_FALSE(d.should_stop(m));
  m.record({3.0, 3, 0.1, 0.9, 0, 0});
  EXPECT_TRUE(d.should_stop(m));
}

TEST(Driver, ShouldStopDisabledByDefault) {
  Env env;
  Driver d(env.cfg);
  Metrics m;
  for (int i = 1; i <= 5; ++i)
    m.record({static_cast<double>(i), static_cast<std::size_t>(i), 0.0, 1.0, 0, 0});
  EXPECT_FALSE(d.should_stop(m));
}

TEST(Driver, MnistImagePresetWorksEndToEnd) {
  auto tt = data::make_mnist_image_like(300, 100, 3);
  EXPECT_EQ(tt.train.xs.rank(), 4u);
  EXPECT_EQ(tt.train.xs.dim(1), 1u);
  EXPECT_EQ(tt.train.xs.dim(2), 28u);

  util::Rng rng(3);
  FLConfig cfg;
  cfg.train = &tt.train;
  cfg.test = &tt.test;
  cfg.partition = data::partition_iid(tt.train, 4, rng);
  cfg.model_factory = [] { return ml::make_cnn_mnist(0.1, 28); };
  cfg.batch_size = 8;
  cfg.eval_samples = 50;
  Driver d(cfg);
  const auto w = d.initial_model();
  const auto r = d.evaluate(w);
  EXPECT_GT(r.loss, 0.0);
}

}  // namespace
}  // namespace airfedga::fl
