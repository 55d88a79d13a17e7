#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "obs/trace.hpp"

namespace airfedga::util {

namespace {
// Per-thread flag shared by all pools: set while the thread is executing
// pool work (or a SerialRegion), checked by parallel_for's nesting rule.
thread_local bool t_in_parallel_work = false;

// Min-heap comparator: std::*_heap keep the *greatest* element on top, so
// "greater" here means "runs later" — larger key, then larger seq. The
// `auto` parameters let it order ThreadPool::PendingTask without naming
// the private nested type.
struct RunsLater {
  bool operator()(const auto& a, const auto& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  }
};
}  // namespace

bool ThreadPool::on_worker_thread() { return t_in_parallel_work; }

ThreadPool::SerialRegion::SerialRegion() : prev_(t_in_parallel_work) {
  t_in_parallel_work = true;
}

ThreadPool::SerialRegion::~SerialRegion() { t_in_parallel_work = prev_; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] {
      char name[32];
      std::snprintf(name, sizeof name, "lane-%zu", i);
      obs::name_this_thread(name);
      t_in_parallel_work = true;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool::PendingTask ThreadPool::pop_task_locked() {
  std::pop_heap(tasks_.begin(), tasks_.end(), RunsLater{});
  PendingTask task = std::move(tasks_.back());
  tasks_.pop_back();
  return task;
}

void ThreadPool::worker_loop() {
  for (;;) {
    PendingTask task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = pop_task_locked();
    }
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      obs::Span span("pool", "pool.task");
      const auto t0 = std::chrono::steady_clock::now();
      run(task);
      busy_ns_.fetch_add(static_cast<std::uint64_t>(
                             std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count()),
                         std::memory_order_relaxed);
    } else {
      run(task);
    }
  }
}

void ThreadPool::run(PendingTask& task) {
  if (task.chunk_of == nullptr) {
    task.fn();
    return;
  }
  ForLatch& latch = *task.chunk_of;
  (*latch.fn)(task.begin, task.end);
  // Signal under the lock: once the caller sees remaining == 0, no chunk
  // touches the latch again, so its next call may reuse it.
  std::scoped_lock lock(latch.mutex);
  if (--latch.remaining == 0) latch.cv.notify_one();
}

void ThreadPool::enqueue(PendingTask task) {
  if (std::isnan(task.key)) throw std::invalid_argument("ThreadPool: NaN scheduling key");
  {
    std::scoped_lock lock(mutex_);
    task.seq = next_seq_++;
    tasks_.push_back(std::move(task));
    std::push_heap(tasks_.begin(), tasks_.end(), RunsLater{});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, RangeFn fn, std::size_t grain) {
  const std::size_t workers = threads_.size();
  if (workers == 0 || n <= grain || t_in_parallel_work) {
    if (n > 0) fn(0, n);
    return;
  }
  const std::size_t parts = std::min(workers + 1, (n + grain - 1) / grain);
  const std::size_t chunk = (n + parts - 1) / parts;

  // The calling thread's latch, reused by each of its calls. A nested call
  // from the caller's own chunk would reuse it too early, so that chunk
  // runs as parallel work: nested loops inside it run serially, as they do
  // in the chunks on pool threads.
  thread_local ForLatch latch;
  {
    std::scoped_lock lock(latch.mutex);
    latch.remaining = parts;
    latch.fn = &fn;
  }
  {
    // All chunks go in under one lock, into room reserved up front: the
    // queue then grows only when more tasks are pending than ever before,
    // not whenever the lanes happen to pop chunks more slowly than in an
    // earlier call. kUrgent: the caller blocks until every chunk ran, so
    // chunks must not queue behind pending long-running submitted jobs.
    std::scoped_lock lock(mutex_);
    tasks_.reserve(tasks_.size() + parts - 1);
    for (std::size_t p = 1; p < parts; ++p) {
      const std::size_t begin = p * chunk;
      tasks_.push_back({kUrgent, next_seq_++, {}, &latch, begin, std::min(n, begin + chunk)});
      std::push_heap(tasks_.begin(), tasks_.end(), RunsLater{});
    }
  }
  for (std::size_t p = 1; p < parts; ++p) cv_.notify_one();
  // The calling thread takes the first chunk instead of sleeping.
  std::exception_ptr error;
  {
    SerialRegion serial;
    try {
      fn(0, std::min(n, chunk));
    } catch (...) {
      error = std::current_exception();
    }
  }
  {
    std::unique_lock lock(latch.mutex);
    --latch.remaining;
    latch.cv.wait(lock, [] { return latch.remaining == 0; });
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()) - 1);
  return pool;
}

void parallel_for(std::size_t n, RangeFn fn, std::size_t grain) {
  global_pool().parallel_for(n, fn, grain);
}

std::size_t lane_budget_share(std::size_t requested, std::size_t jobs, std::size_t budget) {
  if (budget == 0) budget = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (jobs == 0) jobs = 1;
  const std::size_t share = std::max<std::size_t>(1, budget / jobs);
  return requested == 0 ? share : std::min(requested, share);
}

}  // namespace airfedga::util
