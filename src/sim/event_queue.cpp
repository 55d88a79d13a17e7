#include "sim/event_queue.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace airfedga::sim {

void EventQueue::assert_owner() {
#ifndef NDEBUG
  // compare_exchange claims ownership exactly once even if two threads
  // race the first access; the loser sees the winner's id and throws.
  std::thread::id expected{};
  const std::thread::id me = std::this_thread::get_id();
  if (!owner_.compare_exchange_strong(expected, me) && expected != me) {
    throw std::logic_error("EventQueue: accessed from a second thread (single-owner contract)");
  }
#endif
}

std::uint64_t EventQueue::schedule(double time, int kind, std::size_t actor) {
  assert_owner();
  if (!std::isfinite(time)) throw std::invalid_argument("EventQueue: non-finite time");
  if (time < now_) throw std::invalid_argument("EventQueue: scheduling into the past");
  const std::uint64_t seq = next_seq_++;
  heap_.push(Event{time, seq, kind, actor});
  obs::instant("sim", "eventq.push", "pending", static_cast<std::int64_t>(heap_.size()));
  return seq;
}

Event EventQueue::pop() {
  assert_owner();
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty queue");
  const Event e = heap_.top();
  heap_.pop();
  now_ = e.time;
  obs::instant("sim", "eventq.pop", "pending", static_cast<std::int64_t>(heap_.size()));
  return e;
}

const Event& EventQueue::peek() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::peek: empty queue");
  return heap_.top();
}

}  // namespace airfedga::sim
