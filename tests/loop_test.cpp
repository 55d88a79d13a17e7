// Tests for the unified scheduling loop's policy API: cohort formation,
// trigger taxonomy, selection, aggregation timing, flush decisions, and
// staleness reweighting — each hook exercised in isolation against a
// prepared SchedulingLoop — plus the refactor's acceptance check: every
// ported mechanism reproduces its pre-refactor Metrics digest across lane
// counts.

#include "fl/loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <set>
#include <vector>

#include "fl/mechanisms.hpp"
#include "ml/zoo.hpp"
#include "support/golden.hpp"
#include "util/stats.hpp"

namespace airfedga::fl {
namespace {

/// Same 12-worker setup as the parallel-determinism suite: small enough to
/// run in milliseconds, rich enough (stochastic batches, sharded eval,
/// label skew) to exercise every engine path.
struct Fixture {
  data::TrainTest data;
  FLConfig cfg;

  explicit Fixture(std::uint64_t seed = 7, std::size_t workers = 12) {
    data.train = data::make_synthetic_flat(16, {workers * 40, 6, 1.0, 0.3, seed});
    data.test = data::make_synthetic_flat(16, {240, 6, 1.0, 0.3, seed});
    util::Rng rng(seed);
    cfg.train = &data.train;
    cfg.test = &data.test;
    cfg.partition = data::partition_label_skew(data.train, workers, rng);
    cfg.model_factory = [] { return ml::make_softmax_regression(16, 6); };
    cfg.learning_rate = 0.3f;
    cfg.batch_size = 8;
    cfg.cluster.base_seconds = 6.0;
    cfg.cluster.seed = seed + 1;
    cfg.fading.seed = seed + 2;
    cfg.time_budget = 900.0;
    cfg.eval_every = 1;
    cfg.eval_samples = 240;
    cfg.eval_batch = 64;
    cfg.max_rounds = 25;
    cfg.seed = seed;
  }
};

void expect_partition(const data::WorkerGroups& cohorts, std::size_t n) {
  std::set<std::size_t> seen;
  for (const auto& c : cohorts) {
    EXPECT_FALSE(c.empty());
    for (auto w : c) {
      EXPECT_LT(w, n);
      EXPECT_TRUE(seen.insert(w).second) << "worker " << w << " in two cohorts";
    }
  }
  EXPECT_EQ(seen.size(), n);
}

// -- selection hooks ---------------------------------------------------

TEST(LoopPolicy, CohortShapesMatchEachMechanismsTopology) {
  Fixture f;
  Driver driver(f.cfg);
  const std::size_t n = driver.num_workers();

  // Synchronous mechanisms: one cohort holding everyone.
  FedAvg fedavg;
  SchedulingLoop sync_loop(driver, fedavg);
  ASSERT_EQ(sync_loop.cohorts().size(), 1u);
  expect_partition(sync_loop.cohorts(), n);

  // TiFL: `tiers` cohorts partitioning the workers by response time.
  TiFL tifl(MechanismConfig{.tiers = 3});
  SchedulingLoop tier_loop(driver, tifl);
  EXPECT_EQ(tier_loop.cohorts().size(), 3u);
  expect_partition(tier_loop.cohorts(), n);

  // Async mechanisms: every worker is its own cohort, and cohort_of is the
  // identity (staleness is tracked per worker).
  SemiAsync semi;
  SchedulingLoop buf_loop(driver, semi);
  ASSERT_EQ(buf_loop.cohorts().size(), n);
  expect_partition(buf_loop.cohorts(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(buf_loop.cohort_of(i), i);
}

TEST(LoopPolicy, TriggerTaxonomyCoversAllMechanisms) {
  EXPECT_EQ(FedAvg().trigger(), TriggerKind::kRoundBarrier);
  EXPECT_EQ(AirFedAvg().trigger(), TriggerKind::kRoundBarrier);
  EXPECT_EQ(DynamicAirComp().trigger(), TriggerKind::kRoundBarrier);
  EXPECT_EQ(TiFL().trigger(), TriggerKind::kCohortTimer);
  EXPECT_EQ(FedAsync().trigger(), TriggerKind::kCohortTimer);
  EXPECT_EQ(AirFedGA().trigger(), TriggerKind::kGroupReady);
  EXPECT_EQ(SemiAsync().trigger(), TriggerKind::kReadyBuffer);
}

TEST(LoopPolicy, DefaultSelectReturnsTheFullCohort) {
  Fixture f;
  Driver driver(f.cfg);
  FedAvg fedavg;
  SchedulingLoop loop(driver, fedavg);
  EXPECT_EQ(fedavg.select(loop, 0, 1), loop.cohorts()[0]);
}

TEST(LoopPolicy, DynamicSelectionFollowsTheGainQuantile) {
  Fixture f;
  Driver driver(f.cfg);
  DynamicAirComp dyn(MechanismConfig{.selection_quantile = 0.5});
  SchedulingLoop loop(driver, dyn);

  for (std::size_t round : {1UL, 2UL, 7UL}) {
    const auto selected = dyn.select(loop, 0, round);
    ASSERT_FALSE(selected.empty()) << "round " << round;
    // Exactly the workers whose gain this round clears the quantile.
    const auto gains = driver.substrate().gains(round);
    const double cutoff = util::quantile(gains, 0.5);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < gains.size(); ++i)
      if (gains[i] >= cutoff) expected.push_back(i);
    EXPECT_EQ(selected, expected) << "round " << round;
    EXPECT_LT(selected.size(), driver.num_workers());  // quantile 0.5 really drops someone
  }

  // Quantile 0 admits everyone: selection degenerates to Air-FedAvg.
  DynamicAirComp all(MechanismConfig{.selection_quantile = 0.0});
  EXPECT_EQ(all.select(loop, 0, 1).size(), driver.num_workers());
}

// -- aggregation-trigger hooks -----------------------------------------

TEST(LoopPolicy, DefaultAggregateTimeIsStartPlusComputePlusUpload) {
  Fixture f;
  Driver driver(f.cfg);
  FedAvg fedavg;
  SchedulingLoop loop(driver, fedavg);
  const auto& members = loop.cohorts()[0];
  double slowest = 0.0;
  for (auto m : members) slowest = std::max(slowest, loop.local_times()[m]);
  const double upload = fedavg.upload_seconds(loop, members, 10.0);
  EXPECT_EQ(fedavg.aggregate_time(loop, 0, members, 10.0), 10.0 + (slowest + upload));
}

TEST(LoopPolicy, FedAsyncAggregateTimeKeepsTheOriginalAssociation) {
  Fixture f;
  Driver driver(f.cfg);
  FedAsync fa;
  SchedulingLoop loop(driver, fa);
  const std::vector<std::size_t> members = {3};
  const double upload = fa.upload_seconds(loop, members, 10.0);
  // (start + l_i) + upload — the seed implementation's left-to-right
  // association, preserved bit for bit.
  EXPECT_EQ(fa.aggregate_time(loop, 3, members, 10.0), (10.0 + loop.local_times()[3]) + upload);
}

TEST(LoopPolicy, SemiAsyncFlushesAtAggregateCount) {
  Fixture f;
  Driver driver(f.cfg);
  SemiAsync semi(MechanismConfig{.aggregate_count = 3, .staleness_bound = 100});
  SchedulingLoop loop(driver, semi);
  EXPECT_FALSE(semi.should_flush(loop, {0}));
  EXPECT_FALSE(semi.should_flush(loop, {0, 5}));
  EXPECT_TRUE(semi.should_flush(loop, {0, 5, 7}));

  // K above the worker count clamps to N instead of starving the buffer.
  SemiAsync greedy(MechanismConfig{.aggregate_count = 100, .staleness_bound = 100});
  std::vector<std::size_t> everyone(driver.num_workers());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  EXPECT_FALSE(greedy.should_flush(loop, {0, 1, 2, 3}));
  EXPECT_TRUE(greedy.should_flush(loop, everyone));
}

TEST(LoopPolicy, SemiAsyncFlushesEarlyAtTheStalenessBound) {
  Fixture f;
  Driver driver(f.cfg);
  SemiAsync semi(MechanismConfig{.aggregate_count = 100, .staleness_bound = 2});
  SchedulingLoop loop(driver, semi);
  const auto model = loop.server().model_vector();

  // Fresh server: worker 0's upload is not stale, the buffer waits.
  EXPECT_FALSE(semi.should_flush(loop, {0}));

  // Two rounds committed by other cohorts make worker 0's pending upload
  // 2 rounds stale — the bound forces the flush even at buffer size 1.
  loop.server().complete_round(std::vector<std::size_t>{1}, model);
  EXPECT_FALSE(semi.should_flush(loop, {0}));
  loop.server().complete_round(std::vector<std::size_t>{2}, model);
  EXPECT_EQ(loop.server().staleness(0), 2u);
  EXPECT_TRUE(semi.should_flush(loop, {0}));
}

// -- staleness-weighting hooks -----------------------------------------

TEST(LoopPolicy, FedAsyncReweightMatchesTheDampedMixingFormula) {
  Fixture f;
  Driver driver(f.cfg);
  FedAsync fa(MechanismConfig{.mixing = 0.6, .damping = 0.5});
  SchedulingLoop loop(driver, fa);
  const std::vector<float> w_prev = {1.0f, -2.0f, 0.5f};
  std::vector<float> w_next = {3.0f, 0.0f, -1.0f};
  const double tau = 3.0;
  fa.reweight(loop, w_prev, w_next, tau);
  const double alpha = 0.6 / std::pow(1.0 + tau, 0.5);
  for (std::size_t d = 0; d < w_prev.size(); ++d) {
    const float expected = static_cast<float>((1.0 - alpha) * w_prev[d] +
                                              alpha * (d == 0 ? 3.0f : d == 1 ? 0.0f : -1.0f));
    EXPECT_EQ(w_next[d], expected) << "dim " << d;
  }
}

TEST(LoopPolicy, SemiAsyncReweightAppliesTheConfiguredSchedule) {
  Fixture f;
  Driver driver(f.cfg);
  const std::vector<float> w_prev = {1.0f, -2.0f};
  const std::vector<float> cand = {3.0f, 2.0f};
  const double tau = 2.0;

  SemiAsync poly(MechanismConfig{.mixing = 0.8, .damping = 0.5, .damping_schedule = "poly"});
  SchedulingLoop loop(driver, poly);
  std::vector<float> w_poly = cand;
  poly.reweight(loop, w_prev, w_poly, tau);
  const double sigma_poly = 0.8 / std::pow(1.0 + tau, 0.5);
  for (std::size_t d = 0; d < cand.size(); ++d)
    EXPECT_EQ(w_poly[d], static_cast<float>(w_prev[d] + sigma_poly * (cand[d] - w_prev[d])));

  SemiAsync exp(MechanismConfig{.mixing = 0.8, .damping = 0.5, .damping_schedule = "exp"});
  std::vector<float> w_exp = cand;
  exp.reweight(loop, w_prev, w_exp, tau);
  const double sigma_exp = 0.8 * std::exp(-0.5 * tau);
  for (std::size_t d = 0; d < cand.size(); ++d)
    EXPECT_EQ(w_exp[d], static_cast<float>(w_prev[d] + sigma_exp * (cand[d] - w_prev[d])));

  // tau = 0: both schedules reduce to plain mixing.
  std::vector<float> w0 = cand;
  poly.reweight(loop, w_prev, w0, 0.0);
  for (std::size_t d = 0; d < cand.size(); ++d)
    EXPECT_EQ(w0[d], static_cast<float>(w_prev[d] + 0.8 * (cand[d] - w_prev[d])));
}

TEST(LoopPolicy, AirFedGAReweightIsIdentityUnlessDamped) {
  Fixture f;
  Driver driver(f.cfg);
  const std::vector<float> w_prev = {1.0f, -1.0f};
  const std::vector<float> cand = {5.0f, 3.0f};

  AirFedGA plain;
  SchedulingLoop loop(driver, plain);
  std::vector<float> w = cand;
  plain.reweight(loop, w_prev, w, /*tau=*/4.0);
  EXPECT_EQ(w, cand);  // the paper's Alg. 1 applies no staleness damping

  AirFedGA damped(MechanismConfig{.staleness_damping = 0.5});
  w = cand;
  damped.reweight(loop, w_prev, w, /*tau=*/4.0);
  const double damp = 1.0 / std::pow(5.0, 0.5);
  for (std::size_t d = 0; d < cand.size(); ++d)
    EXPECT_EQ(w[d], static_cast<float>(w_prev[d] + damp * (cand[d] - w_prev[d])));
}

TEST(LoopPolicy, MultiGroupCommitAdvancesOneRoundAndResetsEveryGroup) {
  ParameterServer server({1.0f, 2.0f}, 4);
  server.ready(0, 1);
  server.ready(2, 1);
  server.complete_round(std::vector<std::size_t>{0, 2}, {3.0f, 4.0f});
  EXPECT_EQ(server.round(), 1u);  // one buffered flush = one global round
  EXPECT_EQ(server.ready_count(0), 0u);
  EXPECT_EQ(server.ready_count(2), 0u);
  EXPECT_EQ(server.base_version(0), 1u);
  EXPECT_EQ(server.base_version(2), 1u);
  EXPECT_EQ(server.base_version(1), 0u);  // untouched cohorts keep their base
  EXPECT_EQ(server.staleness(1), 1u);
  EXPECT_EQ(server.model_vector(), (std::vector<float>{3.0f, 4.0f}));

  EXPECT_THROW(server.complete_round(std::vector<std::size_t>{}, {0.0f, 0.0f}),
               std::invalid_argument);
  EXPECT_THROW(server.complete_round(std::vector<std::size_t>{9}, {0.0f, 0.0f}),
               std::out_of_range);
}

TEST(LoopPolicy, CheckRejectsBadSemiAsyncKnobsBeforeAnyRunState) {
  Fixture f;
  EXPECT_THROW(SemiAsync(MechanismConfig{.mixing = 0.0}).run(f.cfg), std::invalid_argument);
  EXPECT_THROW(SemiAsync(MechanismConfig{.damping = -0.1}).run(f.cfg), std::invalid_argument);
  EXPECT_THROW(SemiAsync(MechanismConfig{.aggregate_count = 0}).run(f.cfg),
               std::invalid_argument);
  EXPECT_THROW(SemiAsync(MechanismConfig{.damping_schedule = "linear"}).run(f.cfg),
               std::invalid_argument);
}

// -- refactor acceptance: digest equivalence ---------------------------

// Golden Metrics::digest() values captured from the pre-refactor
// per-mechanism loops on this fixture (x86-64). The unified loop must
// reproduce every one of them at every lane count: the digest covers the
// full metric series and the final model bits, so a match means the
// refactor changed no observable behaviour. The goldens hold on every
// glibc build; the thread-invariance half runs everywhere via
// parallel_determinism_test.
TEST(LoopDigests, EveryPortedMechanismMatchesItsPreRefactorDigest) {
  SKIP_UNLESS_GLIBC();
  struct Golden {
    const char* label;
    const char* digest;
    std::function<Metrics(const FLConfig&)> run;
  };
  const std::vector<Golden> goldens = {
      {"fedavg", "bb171646c73cf785", [](const FLConfig& c) { return FedAvg().run(c); }},
      {"airfedavg", "38c2931267c8d221", [](const FLConfig& c) { return AirFedAvg().run(c); }},
      {"dynamic", "d3d01912a3b9ba79",
       [](const FLConfig& c) {
         return DynamicAirComp(MechanismConfig{.selection_quantile = 0.5}).run(c);
       }},
      {"tifl", "faf62aad3f041464",
       [](const FLConfig& c) { return TiFL(MechanismConfig{.tiers = 3}).run(c); }},
      {"fedasync", "ff96ef9dfa60ac7a",
       [](const FLConfig& c) {
         return FedAsync(MechanismConfig{.mixing = 0.6, .damping = 0.5}).run(c);
       }},
      {"airfedga", "260d02f29dc076f1", [](const FLConfig& c) { return AirFedGA().run(c); }},
      {"airfedga_damped", "5b42d13ca1c1fbc3",
       [](const FLConfig& c) {
         return AirFedGA(MechanismConfig{.staleness_damping = 0.5}).run(c);
       }},
  };
  for (const auto& g : goldens)
    for (std::size_t threads : {1UL, 2UL, 4UL}) {
      Fixture f;
      f.cfg.threads = threads;
      const Metrics m = g.run(f.cfg);
      EXPECT_EQ(m.digest(), g.digest) << g.label << " @" << threads << " lanes";
    }
}

// Every local update the engine trains is one an aggregation collects. At
// one lane every job is held until its barrier collects it, so the counts
// agree exactly. On two lanes a job with a deadline inside the budget may
// start before the run stops; at most one job per lane is then running.
// Semi-async gets only the one-lane check: a ready buffer's deadline tag
// is only a lower bound on the flush that collects the update. (FedAsync
// is timer-triggered: its tag is its aggregation event's time.)
TEST(LoopEngine, TrainsOnlyWhatAnAggregationCollects) {
  struct Case {
    const char* label;
    bool deadline_exact;
    std::function<Metrics(const FLConfig&)> run;
  };
  const std::vector<Case> cases = {
      {"fedavg", true, [](const FLConfig& c) { return FedAvg().run(c); }},
      {"airfedavg", true, [](const FLConfig& c) { return AirFedAvg().run(c); }},
      {"dynamic", true,
       [](const FLConfig& c) {
         return DynamicAirComp(MechanismConfig{.selection_quantile = 0.5}).run(c);
       }},
      {"tifl", true, [](const FLConfig& c) { return TiFL(MechanismConfig{.tiers = 3}).run(c); }},
      {"fedasync", true, [](const FLConfig& c) { return FedAsync().run(c); }},
      {"semiasync", false, [](const FLConfig& c) { return SemiAsync().run(c); }},
      {"airfedga", true, [](const FLConfig& c) { return AirFedGA().run(c); }},
  };
  const auto counter = [](const Metrics& m, const std::string& name) {
    for (const auto& [key, value] : m.obs_snapshot().counters)
      if (key == name) return value;
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  for (const auto& c : cases)
    for (std::size_t lanes : {1UL, 2UL}) {
      if (lanes > 1 && !c.deadline_exact) continue;
      Fixture f;
      f.cfg.threads = lanes;
      f.cfg.time_budget = 150.0;  // the run stops on its budget, mid-cycle
      f.cfg.max_rounds = 1000000;
      const Metrics m = c.run(f.cfg);
      const std::uint64_t run = counter(m, "driver.updates_run");
      const std::uint64_t collected = counter(m, "driver.updates_collected");
      EXPECT_GT(collected, 0u) << c.label;
      if (lanes == 1)
        EXPECT_EQ(run, collected) << c.label;
      else
        EXPECT_LE(run, collected + lanes) << c.label;
    }
}

}  // namespace
}  // namespace airfedga::fl
