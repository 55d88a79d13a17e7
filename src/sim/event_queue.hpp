#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <thread>
#include <vector>

/// \namespace airfedga::sim
/// Discrete-event simulation layer: the virtual-time event queue and the
/// compute-heterogeneity cluster model.

namespace airfedga::sim {

/// One scheduled occurrence in virtual time. `kind`/`actor` are interpreted
/// by the mechanism that scheduled the event (e.g. actor = worker id for a
/// READY event in Alg. 1).
struct Event {
  double time = 0.0;      ///< virtual time at which the event fires
  std::uint64_t seq = 0;  ///< insertion order; breaks time ties deterministically
  int kind = 0;           ///< mechanism-defined event type
  std::size_t actor = 0;  ///< mechanism-defined subject (worker/group/tier id)
};

/// Min-queue of events ordered by (time, seq), stored in a binary heap
/// (O(log n) schedule and pop).
///
/// The simulator advances a virtual clock: popping returns the earliest
/// event and moves the clock forward; scheduling in the past is rejected so
/// causality bugs in mechanisms surface immediately instead of silently
/// reordering history.
///
/// Threading contract: the queue is deliberately NOT thread-safe. Virtual
/// time is the simulation's single source of truth, and it stays
/// deterministic only if one thread owns the schedule/pop sequence. The
/// group-parallel execution engine respects this by keeping all event and
/// aggregation processing on the simulation thread and dispatching only
/// local-training compute to pool lanes. Debug builds assert the contract:
/// the first thread to touch the queue becomes its owner and any access
/// from another thread throws.
class EventQueue {
 public:
  /// Schedules an event; returns its sequence number.
  std::uint64_t schedule(double time, int kind, std::size_t actor);

  /// Pops the earliest event and advances the clock to its time.
  Event pop();

  /// True when no events are pending.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Current virtual time (time of the last popped event; 0 initially).
  [[nodiscard]] double now() const { return now_; }

  /// Earliest pending event without popping it or advancing the clock.
  /// Throws when empty.
  [[nodiscard]] const Event& peek() const;

  /// Time of the earliest pending event. Throws when empty.
  [[nodiscard]] double peek_time() const { return peek().time; }

 private:
  void assert_owner();

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
#ifndef NDEBUG
  // Atomic so the guard itself is race-free: two threads racing the first
  // access must not both claim ownership (and an unsynchronized check
  // could miss exactly the violation it exists to detect).
  std::atomic<std::thread::id> owner_{};  ///< set on first mutating access
#endif
};

}  // namespace airfedga::sim
