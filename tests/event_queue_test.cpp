#include <gtest/gtest.h>

#include "sim/event_queue.hpp"

namespace airfedga::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(3.0, 0, 1);
  q.schedule(1.0, 0, 2);
  q.schedule(2.0, 0, 3);
  EXPECT_EQ(q.pop().actor, 2u);
  EXPECT_EQ(q.pop().actor, 3u);
  EXPECT_EQ(q.pop().actor, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.schedule(1.0, 0, 10);
  q.schedule(1.0, 0, 20);
  q.schedule(1.0, 0, 30);
  EXPECT_EQ(q.pop().actor, 10u);
  EXPECT_EQ(q.pop().actor, 20u);
  EXPECT_EQ(q.pop().actor, 30u);
}

TEST(EventQueue, ClockAdvancesMonotonically) {
  EventQueue q;
  q.schedule(5.0, 0, 0);
  q.schedule(2.0, 0, 0);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, RejectsSchedulingIntoPast) {
  EventQueue q;
  q.schedule(2.0, 0, 0);
  q.pop();
  EXPECT_THROW(q.schedule(1.0, 0, 0), std::invalid_argument);
  EXPECT_NO_THROW(q.schedule(2.0, 0, 0));  // "now" is allowed
  EXPECT_DOUBLE_EQ(q.peek_time(), 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsNonFiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::infinity(), 0, 0),
               std::invalid_argument);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), 0, 0),
               std::invalid_argument);
}

TEST(EventQueue, PeekDoesNotAdvance) {
  EventQueue q;
  q.schedule(4.0, 7, 9);
  EXPECT_DOUBLE_EQ(q.peek_time(), 4.0);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PeekReturnsEarliestEventIntact) {
  EventQueue q;
  q.schedule(4.0, 7, 9);
  q.schedule(2.0, 3, 5);
  const Event& e = q.peek();
  EXPECT_DOUBLE_EQ(e.time, 2.0);
  EXPECT_EQ(e.kind, 3);
  EXPECT_EQ(e.actor, 5u);
  EXPECT_EQ(q.size(), 2u);       // nothing was popped
  EXPECT_DOUBLE_EQ(q.now(), 0.0);  // the clock did not advance
  EXPECT_EQ(q.pop().actor, 5u);  // pop agrees with peek
}

TEST(EventQueue, EmptyPopThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(static_cast<void>(q.peek_time()), std::logic_error);
  EXPECT_THROW(static_cast<void>(q.peek()), std::logic_error);
}

TEST(EventQueue, KindAndActorRoundTrip) {
  EventQueue q;
  q.schedule(1.0, 42, 99);
  const auto e = q.pop();
  EXPECT_EQ(e.kind, 42);
  EXPECT_EQ(e.actor, 99u);
  EXPECT_DOUBLE_EQ(e.time, 1.0);
}

TEST(EventQueue, InterleavedScheduleAndPop) {
  EventQueue q;
  q.schedule(1.0, 0, 1);
  const auto e1 = q.pop();
  q.schedule(e1.time + 1.0, 0, 2);
  q.schedule(e1.time + 0.5, 0, 3);
  EXPECT_EQ(q.pop().actor, 3u);
  EXPECT_EQ(q.pop().actor, 2u);
}

}  // namespace
}  // namespace airfedga::sim
