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

// Scheduling key of the task the current pool thread is running; cooperate
// enqueues its helpers at this key so helping a group ranks exactly like
// training that group (deadline-aware donation).
thread_local double t_current_key = std::numeric_limits<double>::infinity();

// Cooperation target installed by the innermost CooperationScope.
thread_local ThreadPool* t_coop_pool = nullptr;

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
      idle_.fetch_add(1, std::memory_order_relaxed);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      idle_.fetch_sub(1, std::memory_order_relaxed);
      if (stop_ && tasks_.empty()) return;
      task = pop_task_locked();
    }
    t_current_key = task.key;
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
    t_current_key = kNoDeadline;
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

ThreadPool* ThreadPool::cooperation_pool() { return t_coop_pool; }

ThreadPool::CooperationScope::CooperationScope(ThreadPool& pool) : prev_(t_coop_pool) {
  t_coop_pool = &pool;
}

ThreadPool::CooperationScope::~CooperationScope() { t_coop_pool = prev_; }

void ThreadPool::cooperate(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t helpers = std::min({idle_workers(), n - 1, threads_.size()});
  if (helpers == 0) {
    for (std::size_t t = 0; t < n; ++t) fn(t);
    return;
  }

  // Shared by the caller and every recruited helper. Holds a *copy* of fn:
  // a helper that wakes only after this call returned still dereferences
  // valid state (it finds next >= n and exits without touching fn's
  // captured pointers, which may be dead by then).
  struct CoopState {
    std::function<void(std::size_t)> fn;
    std::size_t n = 0;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t next = 0;      ///< tiles claimed so far (guarded by mutex)
    std::size_t finished = 0;  ///< tiles completed (guarded by mutex)
    bool abort = false;        ///< stop claiming (first error wins)
    std::exception_ptr error;  ///< first failure (guarded by mutex)
  };
  auto state = std::make_shared<CoopState>();
  state->fn = fn;
  state->n = n;

  auto drain = [](CoopState& s) -> std::size_t {
    std::size_t done = 0;
    for (;;) {
      std::size_t t;
      {
        std::scoped_lock lock(s.mutex);
        if (s.abort || s.next >= s.n) return done;
        t = s.next++;
      }
      try {
        s.fn(t);
        ++done;
      } catch (...) {
        std::scoped_lock lock(s.mutex);
        if (!s.error) s.error = std::current_exception();
        s.abort = true;
      }
      std::scoped_lock lock(s.mutex);
      if (++s.finished == s.next && (s.abort || s.next >= s.n)) s.cv.notify_all();
    }
  };

  coop_regions_.fetch_add(1, std::memory_order_relaxed);
  const double key = t_current_key;  // inherit the donating task's deadline
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue(key, [this, state, drain] {
      obs::Span span("pool", "pool.coop_help");
      const std::size_t done = drain(*state);
      if (done > 0) coop_helper_tiles_.fetch_add(done, std::memory_order_relaxed);
    });
  }

  drain(*state);
  std::unique_lock lock(state->mutex);
  // Terminates: every claimed tile either finishes or records an error
  // (both increment `finished`), and claims stop once next reaches n or a
  // tile failed. Late helpers claim nothing and exit on their own.
  state->cv.wait(lock, [&] {
    return state->finished == state->next && (state->abort || state->next >= state->n);
  });
  if (state->error) std::rethrow_exception(state->error);
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
