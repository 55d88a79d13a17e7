#pragma once

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

/// \namespace airfedga::util
/// Concurrency and utility substrate: the training-lane thread pool,
/// forkable RNG streams, statistics helpers, and table output.

namespace airfedga::util {

/// A non-owning reference to a callable `f(begin, end)`, the chunk body of
/// `parallel_for`: binding a lambda copies and allocates nothing, where a
/// `std::function` would allocate for any capture larger than two pointers.
/// Valid only while the referenced callable lives.
class RangeFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, RangeFn> &&
             std::is_invocable_v<const F&, std::size_t, std::size_t>)
  RangeFn(const F& f)  // implicit: binds a lambda at the call site
      : obj_(&f), call_([](const void* obj, std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(obj))(begin, end);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const { call_(obj_, begin, end); }

 private:
  const void* obj_;
  void (*call_)(const void*, std::size_t, std::size_t);
};

/// \brief A small fixed-size worker pool with three entry points.
///
///  * `parallel_for` — OpenMP-style blocking data-parallel loop, used by the
///    ML library's GEMM and by batched evaluation;
///  * `submit` — fire-and-forget task submission returning a `std::future`,
///    used by the federated driver to run whole worker/group local-training
///    jobs concurrently between aggregation barriers;
///  * `submit_prioritized` — like `submit`, but tagged with a scheduling
///    key: pending tasks run in ascending key order (FIFO among equal
///    keys). The driver uses a group's next *virtual-time* aggregation
///    deadline as the key, so earliest-deadline groups get lanes first and
///    barrier stalls shrink (deadline-aware lane scheduling).
///
/// Scheduling changes only the *order* in which pending tasks start, never
/// their results: every task is self-contained (per-worker RNG streams,
/// leased scratch models) and all reductions happen in fixed order on the
/// submitting thread, so prioritization preserves bit-determinism.
///
/// Nesting rule: a task already running on *any* pool's worker thread that
/// calls `parallel_for` gets the serial fallback instead of fanning out
/// again, and so does the caller's own chunk of a `parallel_for`. This
/// prevents the classic deadlock (every worker blocked inside a nested loop
/// waiting for chunks no free thread can run) and the oversubscription
/// thrash of parallelizing inside already-parallel worker training.
/// Results are unaffected: all chunked kernels write disjoint output
/// ranges, so chunking never changes floating-point results.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 workers means every
  /// submitted task runs inline on the calling thread.
  explicit ThreadPool(std::size_t num_threads);

  /// Drains remaining tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;             ///< non-copyable (owns threads)
  ThreadPool& operator=(const ThreadPool&) = delete;  ///< non-copyable (owns threads)

  /// Number of worker threads (0 for an inline pool).
  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Scheduling key for tasks with no deadline: they run after every
  /// deadline-tagged task already waiting in the queue.
  static constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

  /// Scheduling key for latency-critical tasks (e.g. evaluation shards the
  /// simulation thread is blocked on): they jump ahead of every pending
  /// training job. Running tasks are never preempted.
  static constexpr double kUrgent = -std::numeric_limits<double>::infinity();

  /// Runs fn(begin, end) over [0, n) split into contiguous chunks, one per
  /// worker (plus the calling thread). Blocks until all chunks complete.
  /// Falls back to a serial call when n is small, the pool has 0 workers,
  /// or the caller is itself a pool worker thread or inside another
  /// `parallel_for` (see nesting rule above). Chunks are enqueued at
  /// `kUrgent` priority: the caller is blocked, so they must not queue
  /// behind long-running submitted jobs. Dispatch allocates nothing once the
  /// task queue has grown: the calling thread reuses one completion latch,
  /// and a queued chunk is the latch's address plus its range. An exception
  /// from the caller's own chunk is rethrown after the other chunks finish.
  void parallel_for(std::size_t n, RangeFn fn, std::size_t grain = 1024);

  /// Schedules `f` with scheduling key `deadline` (lower runs first, FIFO
  /// among equal keys) and returns a future for its result. On a pool with
  /// 0 workers the task runs inline on the calling thread (the future is
  /// ready on return), so serial configurations need no special casing at
  /// call sites. Exceptions propagate through `future::get()`. NaN keys
  /// are rejected on every pool size (they would corrupt the heap's strict
  /// weak ordering), so a bad key cannot hide behind a serial config.
  template <typename F>
  auto submit_prioritized(double deadline, F&& f)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    if (std::isnan(deadline)) throw std::invalid_argument("ThreadPool: NaN scheduling key");
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    if (threads_.empty()) {
      (*task)();
    } else {
      enqueue(deadline, [task] { (*task)(); });
    }
    return fut;
  }

  /// `submit_prioritized` with no deadline: pending deadline-tagged tasks
  /// run first; plain submissions keep FIFO order among themselves.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    return submit_prioritized(kNoDeadline, std::forward<F>(f));
  }

  /// True iff the calling thread is a worker thread of *some* ThreadPool.
  [[nodiscard]] static bool on_worker_thread();

  /// Tasks executed by pool workers since construction (parallel_for
  /// chunks and submitted jobs). Always counted.
  [[nodiscard]] std::uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  /// Cumulative wall time workers spent inside task bodies, in
  /// nanoseconds. Collected only while obs tracing is enabled (the
  /// disabled path must not pay two clock reads per task); 0 otherwise.
  [[nodiscard]] std::uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

  /// RAII guard that marks the current thread as "inside parallel work" so
  /// nested `parallel_for` calls take the serial fallback. Use it to pin a
  /// region of caller-supplied work to the serial kernel schedule (e.g. a
  /// serial timing baseline). This is a wall-time choice only — chunked
  /// kernels write disjoint output ranges, so fanning out or not never
  /// changes floating-point results.
  class SerialRegion {
   public:
    SerialRegion();   ///< marks the current thread as inside parallel work
    ~SerialRegion();  ///< restores the previous marking
    SerialRegion(const SerialRegion&) = delete;             ///< scope guard: non-copyable
    SerialRegion& operator=(const SerialRegion&) = delete;  ///< scope guard: non-copyable

   private:
    bool prev_;
  };

 private:
  /// One `parallel_for` call's completion state. Each calling thread owns
  /// one and reuses it: the call blocks until every chunk signalled, so no
  /// two calls share it.
  struct ForLatch {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining = 0;  ///< chunks not yet finished (guarded by mutex)
    const RangeFn* fn = nullptr;
  };

  /// One pending task: `key` orders the ready queue (ascending), `seq`
  /// breaks ties FIFO so equal-deadline submissions keep insertion order.
  /// A `parallel_for` chunk leaves `fn` empty and names its call's latch
  /// and range instead.
  struct PendingTask {
    double key = kNoDeadline;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    ForLatch* chunk_of = nullptr;
    std::size_t begin = 0, end = 0;
  };

  void worker_loop();
  void run(PendingTask& task);
  void enqueue(PendingTask task);
  void enqueue(double key, std::function<void()> task) { enqueue({key, 0, std::move(task)}); }
  PendingTask pop_task_locked();

  std::vector<std::thread> threads_;
  std::vector<PendingTask> tasks_;  ///< min-heap on (key, seq) via std::*_heap
  std::uint64_t next_seq_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_run_{0};  ///< tasks executed by workers
  std::atomic<std::uint64_t> busy_ns_{0};    ///< wall ns inside task bodies (traced runs)
};

/// Process-wide pool sized to the hardware concurrency (minus one for the
/// calling thread). Thread-safe to call from anywhere after static init.
ThreadPool& global_pool();

/// \brief Lane-budget rule for running several independent drivers at once.
///
/// When `jobs` independent runs execute concurrently (the scenario runner's
/// `--jobs` mode), each run owns a private training-lane pool. Sizing every
/// pool to the full machine would oversubscribe it `jobs`-fold, so each run
/// gets an equal share of a global lane budget instead:
///
///   share = max(1, budget / jobs), clamped to `requested` when the run
///   asked for fewer lanes than its share.
///
/// `budget` 0 means the hardware concurrency; `requested` 0 means "as many
/// as allowed" (the FLConfig::threads convention). Every job always gets at
/// least one lane, so callers should cap `jobs` at the budget rather than
/// rely on this function to serialize excess jobs. Because the execution
/// engine is bit-deterministic for every lane count, clamping a run's lanes
/// never changes its results — only its wall time.
std::size_t lane_budget_share(std::size_t requested, std::size_t jobs, std::size_t budget = 0);

/// Convenience wrapper over global_pool().parallel_for.
void parallel_for(std::size_t n, RangeFn fn, std::size_t grain = 1024);

}  // namespace airfedga::util
