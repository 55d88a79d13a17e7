// Population scale-out correctness: pooled worker state + shared shard
// views must reproduce the digests pinned when every worker was
// materialized up front — Metrics::digest() bit-equal across lane counts —
// while keeping memory bounded by the pool, not the population.
//
// NOTE: the RSS ceiling test must run FIRST in this binary. VmHWM is a
// process-wide high-water mark, so no earlier test may raise it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "fl/driver.hpp"
#include "fl/loop.hpp"
#include "ml/zoo.hpp"
#include "scenario/spec.hpp"
#include "support/golden.hpp"

namespace airfedga {
namespace {

/// Peak resident set size in MiB from /proc/self/status (VmHWM); -1 where
/// unavailable (non-Linux).
double peak_rss_mib() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
#endif
  return -1.0;
}

/// Reduced-budget population scenario: `workers` over `shards` label-skew
/// shards (batch < shard size, so every local step consumes the worker's
/// private RNG — the stream a recycled worker must replay).
scenario::ScenarioSpec pop_spec(std::size_t workers, std::size_t shards, std::size_t threads,
                                std::size_t cohort_size,
                                const std::string& mechanism = "fedavg") {
  scenario::ScenarioSpec spec;
  spec.name = "population_test";
  spec.dataset.train_samples = 2000;
  spec.dataset.test_samples = 400;
  spec.dataset.seed = 7;
  spec.model.kind = "softmax";
  spec.partition.workers = workers;
  spec.partition.shards = shards;
  spec.batch_size = 8;  // shards leave >= 20 samples each; 8 < 20 forces sampling
  spec.local_steps = 2;
  spec.cohort_size = cohort_size;
  spec.threads = threads;
  spec.time_budget = 1e9;
  spec.max_rounds = 8;
  spec.eval_every = 4;
  spec.eval_samples = 200;
  spec.mechanisms.resize(1);
  spec.mechanisms[0].kind = mechanism;
  return spec;
}

fl::Metrics run_metrics(const scenario::ScenarioSpec& spec) {
  spec.validate();
  auto built = scenario::build(spec);
  return built.mechanisms.at(0)->run(built.cfg);
}

std::string run_digest(const scenario::ScenarioSpec& spec) { return run_metrics(spec).digest(); }

// ---- must stay first: VmHWM ceiling at N = 1e5 ---------------------------

TEST(Population, RunAt100kStaysUnderRssCeiling) {
  if (peak_rss_mib() < 0) GTEST_SKIP() << "VmHWM requires /proc/self/status (Linux)";
  const std::string digest = run_digest(pop_spec(100000, 100, 2, 32));
  EXPECT_FALSE(digest.empty());
  const double peak = peak_rss_mib();
  // The worker pool keeps live replicas at O(pool) regardless of N; 1e5
  // materialized workers would hold ~100k private RNG engines (~2.5 KiB
  // each) alone.
  EXPECT_LT(peak, 200.0) << "peak RSS " << peak << " MiB at N=1e5 (the pool should bound this)";
}

// ---- churn at scale: the queue stays cohort-deep ------------------------

TEST(Population, ChurnAt100kQueuesNoPerWorkerAvailabilityEvents) {
  // Availability only matters while a cohort is parked with nobody
  // selectable, so a churn run must not keep one pending transition event
  // per worker: the queue holds the cohort's own events. The digest is the
  // golden captured on the event-per-worker protocol.
  std::string reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    scenario::ScenarioSpec spec = pop_spec(100000, 100, threads, 32, "airfedavg");
    spec.substrate.kind = "churn";
    const fl::Metrics m = run_metrics(spec);
    if (reference.empty()) reference = m.digest();
    EXPECT_EQ(m.digest(), reference) << "threads=" << threads;
    const obs::MetricsSnapshot::HistogramData* pending = nullptr;
    for (const auto& h : m.obs_snapshot().histograms)
      if (h.name == "eventq.pending") pending = &h;
    ASSERT_NE(pending, nullptr);
    ASSERT_GT(pending->count, 0u);
    EXPECT_LE(pending->sum / static_cast<double>(pending->count), 2.0) << "threads=" << threads;
  }
  SKIP_UNLESS_GLIBC();
  EXPECT_EQ(reference, "0f5e98bfc0ea619e");
}

// ---- digest identity: pinned goldens, lane counts -----------------------
//
// The goldens below were captured while the Driver could still materialize
// every worker up front, and matched the pooled layout bit for bit.

TEST(Population, DigestsAt100kMatchPinnedGoldens) {
  SKIP_UNLESS_GLIBC();
  const std::vector<std::pair<const char*, const char*>> goldens = {
      {"fedavg", "3e7120e9cb808083"}, {"airfedavg", "9ac3078ce80061c6"}};
  for (const auto& [mech, golden] : goldens) {
    const std::string digest = run_digest(pop_spec(100000, 100, 2, 32, mech));
    EXPECT_FALSE(digest.empty()) << mech;
    EXPECT_EQ(digest, golden) << mech;
  }
}

TEST(Population, DigestsInvariantAcrossThreads) {
  const std::string reference = run_digest(pop_spec(100000, 100, 1, 32));
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(reference, run_digest(pop_spec(100000, 100, threads, 32)))
        << "threads=" << threads;
  }
}

TEST(Population, RecyclingReplaysRngStreams) {
  // Small population, small cohort, many rounds: far more distinct workers
  // get leased than the pool target (16), so slots are recycled and
  // re-leased cold — the digest only matches the golden if the replayed
  // RNG streams reproduce the exact engine state.
  std::string reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    scenario::ScenarioSpec spec = pop_spec(64, 8, threads, 4);
    spec.max_rounds = 40;
    const std::string digest = run_digest(spec);
    if (reference.empty()) reference = digest;
    EXPECT_EQ(digest, reference) << "threads=" << threads;
  }
  SKIP_UNLESS_GLIBC();
  EXPECT_EQ(reference, "2a362191c48fc186");
}

TEST(Population, SemiAsyncWarmReleaseIsPinned) {
  // Semi-async restarts a worker's training before its buffered model
  // aggregates, so release must skip pending jobs and re-lease warm; any
  // mistake there shows up as a digest mismatch.
  scenario::ScenarioSpec spec = pop_spec(40, 10, 2, 0, "semiasync");
  spec.max_rounds = 12;
  const std::string reference = run_digest(spec);
  SKIP_UNLESS_GLIBC();
  EXPECT_EQ(reference, "e55d4ed1cc2ed87a");
}

// ---- direct Driver pool semantics --------------------------------------

struct PoolEnv {
  data::Dataset train;
  data::Dataset test;
  fl::FLConfig cfg;

  explicit PoolEnv(std::size_t population, std::uint64_t seed = 60) {
    train = data::make_synthetic_flat(16, {400, 4, 1.0, 0.3, seed});
    test = data::make_synthetic_flat(16, {200, 4, 1.0, 0.3, seed});
    util::Rng rng(seed);
    cfg.train = &train;
    cfg.test = &test;
    cfg.partition = data::partition_iid(train, 10, rng);
    cfg.population = population;
    cfg.threads = 1;
    cfg.model_factory = [] { return ml::make_softmax_regression(16, 4); };
    cfg.seed = seed;
    cfg.eval_samples = 200;
  }
};

std::vector<std::size_t> iota_members(std::size_t first, std::size_t count) {
  std::vector<std::size_t> m(count);
  std::iota(m.begin(), m.end(), first);
  return m;
}

TEST(WorkerPool, GrowsPastTargetWhenCohortExceedsIt) {
  PoolEnv env(100);
  fl::Driver d(env.cfg);
  EXPECT_EQ(d.worker_pool_size(), 0u);
  ASSERT_LT(d.worker_pool_target(), 40u);  // the cohort below must outgrow it

  const auto w0 = d.initial_model();
  const auto big = iota_members(0, 40);
  d.begin_training(big, w0);
  d.finish_training(big);
  // A cohort larger than the pool target never fails: the pool grows.
  EXPECT_EQ(d.worker_pool_size(), 40u);
  for (auto m : big) EXPECT_TRUE(d.worker_materialized(m));

  d.release_workers(big);
  // Released slots stay bound (warm) until recycled by a later lease.
  EXPECT_EQ(d.worker_pool_size(), 40u);
  EXPECT_TRUE(d.worker_materialized(7));

  // The next cohort recycles released slots FIFO instead of growing.
  const auto next = iota_members(40, 16);
  d.begin_training(next, w0);
  d.finish_training(next);
  EXPECT_EQ(d.worker_pool_size(), 40u);
  EXPECT_FALSE(d.worker_materialized(0));  // its slot was recycled first
  EXPECT_TRUE(d.worker_materialized(45));
  d.release_workers(next);
}

TEST(WorkerPool, WorkerAccessorEnforcesMaterialization) {
  PoolEnv env(50);
  fl::Driver d(env.cfg);
  EXPECT_FALSE(d.worker_materialized(5));
  EXPECT_THROW(d.worker(5), std::logic_error);      // cold descriptor, no state
  EXPECT_THROW(d.worker(50), std::out_of_range);    // past the population
  EXPECT_THROW(static_cast<void>(d.worker_materialized(50)), std::out_of_range);

  const auto w0 = d.initial_model();
  d.train_workers({5}, w0);
  EXPECT_TRUE(d.worker_materialized(5));
  EXPECT_EQ(d.worker(5).id(), 5u);
  EXPECT_TRUE(d.worker(5).has_model());
}

TEST(WorkerPool, ReleaseEdgeCases) {
  PoolEnv env(50);
  fl::Driver d(env.cfg);
  const auto w0 = d.initial_model();

  d.release_workers({});  // zero-worker group: no-op
  EXPECT_THROW(d.release_workers({3}), std::logic_error);  // never materialized

  d.train_workers({3}, w0);
  d.release_workers({3});
  EXPECT_NO_THROW(d.release_workers({3}));  // double release: already unleased
  EXPECT_TRUE(d.worker_materialized(3));    // still bound until recycled

  // A worker with an in-flight job is skipped (semi-async restarts train a
  // worker again before its buffered model is consumed).
  d.begin_training({4}, w0);
  EXPECT_NO_THROW(d.release_workers({4}));
  d.finish_training({4});
  EXPECT_TRUE(d.worker_materialized(4));
  d.release_workers({4});
}

// ---- config surface -----------------------------------------------------

TEST(PopulationConfig, ValidateRejectsBadShapes) {
  // population below the shard count is meaningless.
  PoolEnv env(5);
  EXPECT_THROW(fl::Driver{env.cfg}, std::invalid_argument);

  scenario::ScenarioSpec spec = pop_spec(100, 200, 1, 0);
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // shards > workers

  spec = pop_spec(100000, 100, 1, 0);
  spec.partition.shards = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // 1e5 one-sample shards don't exist
  spec.partition.shards = 100;
  EXPECT_NO_THROW(spec.validate());  // ... but 1e5 workers over 100 shards do

  spec = pop_spec(100, 10, 1, 0);
  spec.worker_state = "bogus";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.worker_state = "eager";
  spec.event_queue = "bogus";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.event_queue = "calendar";
  EXPECT_NO_THROW(spec.validate());

  // Cohort sampling contradicts group/buffer membership semantics.
  for (const char* mech : {"airfedga", "semiasync"}) {
    scenario::ScenarioSpec bad = pop_spec(100, 10, 1, 8, mech);
    EXPECT_THROW(bad.validate(), std::invalid_argument) << mech;
  }
}

TEST(PopulationConfig, LoopRejectsCohortSamplingForBufferTriggers) {
  // Defense in depth below the spec layer: the loop itself rejects the
  // combination when a raw FLConfig carries it.
  PoolEnv env(50);
  env.cfg.cohort_size = 4;
  env.cfg.max_rounds = 2;
  scenario::MechanismSpec mech;
  mech.kind = "semiasync";
  EXPECT_THROW(mech.make()->run(env.cfg), std::invalid_argument);
  mech.kind = "fedavg";
  EXPECT_NO_THROW(mech.make()->run(env.cfg));
}

TEST(PopulationConfig, SpecRoundTripsNewKnobs) {
  scenario::ScenarioSpec spec = pop_spec(12345, 67, 3, 9);
  spec.worker_state = "lazy";
  spec.event_queue = "calendar";
  spec.cooperative_gemm = false;
  const scenario::ScenarioSpec back = scenario::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back.partition.workers, 12345u);
  EXPECT_EQ(back.partition.shards, 67u);
  EXPECT_EQ(back.worker_state, "lazy");
  EXPECT_EQ(back.event_queue, "calendar");
  EXPECT_FALSE(back.cooperative_gemm);
  EXPECT_EQ(back.cohort_size, 9u);
  EXPECT_EQ(spec.to_json().dump(), back.to_json().dump());
}

}  // namespace
}  // namespace airfedga
