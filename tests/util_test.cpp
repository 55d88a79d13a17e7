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
  for (const unsigned long long z : {0ULL, 1ULL, 311ULL, 312ULL, 313ULL, 1000000ULL}) {
    // From a fresh state and from mid-block (7 words already drawn).
    for (const int drawn : {0, 7}) {
      Mt19937_64 skipped(splitmix64(z)), stepped(splitmix64(z));
      for (int i = 0; i < drawn; ++i) {
        skipped();
        stepped();
      }
      skipped.discard(z);
      for (unsigned long long i = 0; i < z; ++i) stepped();
      for (int i = 0; i < 3; ++i) EXPECT_EQ(skipped(), stepped()) << "z " << z;
    }
  }
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

TEST(ThreadPool, SubmitOnZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  auto f = pool.submit([&] { ran_on = std::this_thread::get_id(); });
  // Inline execution: the task already ran on the calling thread.
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  f.get();
  EXPECT_EQ(ran_on, caller);
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
  // Same contract on a 0-worker (inline) pool: a bad key must not hide
  // behind the serial configuration.
  ThreadPool inline_pool(0);
  EXPECT_THROW(
      inline_pool.submit_prioritized(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
}

TEST(ThreadPool, PrioritizedSubmitOnZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  auto f = pool.submit_prioritized(5.0, [] { return 17; });
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get(), 17);
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
