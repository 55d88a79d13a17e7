// Property test for EventQueue against a model: a plain vector kept in
// (time, seq) order. Under randomized seeded schedule/pop/peek
// interleavings, including timestamp ties (seq must break them), the queue
// must match the model op for op — same (time, seq, kind, actor) pops and
// peeks, same size/now trajectory. On a mismatch the failing op script is
// shrunk to a minimal counterexample (delta debugging) and printed for
// reproduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace airfedga::sim {
namespace {

enum OpType { kPush, kPop, kPeek };

/// One scripted queue operation. Push times are relative to the queue's
/// own clock (time = now + dt, dt >= 0), so any subsequence of a script
/// is still causally valid — which is what makes shrinking sound.
struct Op {
  OpType type;
  double dt = 0.0;
  int kind = 0;
  std::size_t actor = 0;
};

/// What one op observed; traces compare field-for-field with the model's.
struct Rec {
  OpType type;
  bool empty = false;  ///< pop/peek hit an empty queue (skipped)
  double time = 0.0;
  std::uint64_t seq = 0;
  int kind = 0;
  std::size_t actor = 0;
  std::size_t size = 0;
  double now = 0.0;
  bool operator==(const Rec&) const = default;
};

/// The reference: pending events in a vector sorted by (time, seq), the
/// earliest first. Same interface as EventQueue for the ops scripts use.
class SortedModel {
 public:
  std::uint64_t schedule(double time, int kind, std::size_t actor) {
    const Event e{time, next_seq_++, kind, actor};
    // e has the largest seq so far, so it goes after every equal time.
    const auto by_time = [](const Event& a, const Event& b) { return a.time < b.time; };
    const auto pos = std::upper_bound(pending_.begin(), pending_.end(), e, by_time);
    pending_.insert(pos, e);
    return e.seq;
  }
  Event pop() {
    const Event e = pending_.front();
    pending_.erase(pending_.begin());
    now_ = e.time;
    return e;
  }
  [[nodiscard]] const Event& peek() const { return pending_.front(); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] double now() const { return now_; }

 private:
  std::vector<Event> pending_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
};

template <typename Queue>
std::vector<Rec> run_script(const std::vector<Op>& ops) {
  Queue q;
  std::vector<Rec> out;
  out.reserve(ops.size());
  for (const auto& op : ops) {
    Rec r{op.type};
    switch (op.type) {
      case kPush: {
        const double t = q.now() + op.dt;
        r.seq = q.schedule(t, op.kind, op.actor);
        r.time = t;
        r.kind = op.kind;
        r.actor = op.actor;
        break;
      }
      case kPop:
        if (q.empty()) {
          r.empty = true;
        } else {
          const Event e = q.pop();
          r.time = e.time;
          r.seq = e.seq;
          r.kind = e.kind;
          r.actor = e.actor;
        }
        break;
      case kPeek:
        if (q.empty()) {
          r.empty = true;
        } else {
          const Event& e = q.peek();
          r.time = e.time;
          r.seq = e.seq;
          r.kind = e.kind;
          r.actor = e.actor;
        }
        break;
    }
    r.size = q.size();
    r.now = q.now();
    out.push_back(r);
  }
  return out;
}

/// True when the queue and the model disagree anywhere on the script.
bool diverges(const std::vector<Op>& ops) {
  return run_script<EventQueue>(ops) != run_script<SortedModel>(ops);
}

/// Knobs for the random script generator; each test stresses a different
/// mix of ties, peeks and time spreads.
struct GenParams {
  std::size_t length = 2000;
  double p_push = 0.55;       ///< vs pop; peeks are drawn separately
  double p_peek = 0.15;       ///< peek instead of push/pop
  double span = 50.0;         ///< dt ~ U[0, span)
  double cell = 0.5;          ///< dt quantization grid (0 = none); drives ties
  double p_jump = 0.0;        ///< dt *= 1000 (rare far-future events)
  double p_zero = 0.1;        ///< dt = 0 exactly (schedule at now)
};

std::vector<Op> generate(std::uint64_t seed, const GenParams& g) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(g.length);
  for (std::size_t i = 0; i < g.length; ++i) {
    if (rng.coin(g.p_peek)) {
      ops.push_back({kPeek});
      continue;
    }
    if (!rng.coin(g.p_push)) {
      ops.push_back({kPop});
      continue;
    }
    double dt = rng.uniform(0.0, g.span);
    if (g.cell > 0.0) dt = std::floor(dt / g.cell) * g.cell;
    if (g.p_zero > 0.0 && rng.coin(g.p_zero)) dt = 0.0;
    if (g.p_jump > 0.0 && rng.coin(g.p_jump)) dt *= 1000.0;
    ops.push_back({kPush, dt, static_cast<int>(rng.randint(0, 3)),
                   static_cast<std::size_t>(rng.randint(0, 99))});
  }
  // Drain tail: pop everything left, so every pending event is checked.
  for (std::size_t i = 0; i < g.length / 2; ++i) ops.push_back({kPop});
  return ops;
}

/// Delta-debugging shrink: greedily removes chunks (halving the chunk
/// size) while the script still diverges. Any subsequence is valid
/// because push times are now-relative and empty pops/peeks are skipped.
std::vector<Op> shrink(std::vector<Op> ops) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    for (std::size_t start = 0; start + chunk <= ops.size();) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                      candidate.begin() + static_cast<std::ptrdiff_t>(start + chunk));
      if (diverges(candidate)) {
        ops = std::move(candidate);
      } else {
        start += chunk;
      }
    }
  }
  return ops;
}

std::string describe(const std::vector<Op>& ops) {
  std::string s;
  for (const auto& op : ops) {
    char buf[96];
    if (op.type == kPush) {
      std::snprintf(buf, sizeof buf, "push(now+%.17g, %d, %zu); ", op.dt, op.kind, op.actor);
    } else {
      std::snprintf(buf, sizeof buf, "%s; ", op.type == kPop ? "pop" : "peek");
    }
    s += buf;
  }
  return s;
}

/// Runs `rounds` seeded scripts under `g`; on the first divergence,
/// shrinks it and fails with the minimal reproducer.
void check_many(std::uint64_t seed0, std::size_t rounds, const GenParams& g) {
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t seed = seed0 + r;
    std::vector<Op> ops = generate(seed, g);
    if (!diverges(ops)) continue;
    ops = shrink(std::move(ops));
    FAIL() << "queue and model diverge (seed " << seed << "), minimal script (" << ops.size()
           << " ops): " << describe(ops);
  }
}

TEST(EventQueueProperty, RandomInterleavingsMatchSortedModel) {
  check_many(1, 20, GenParams{});
}

TEST(EventQueueProperty, TieHeavyWorkloadsMatch) {
  GenParams g;
  g.cell = 10.0;  // span 50 over a 10-wide grid: ~5 distinct values, constant ties
  g.p_zero = 0.3;
  check_many(100, 10, g);
}

TEST(EventQueueProperty, SparseJumpsAndPeeksMatch) {
  GenParams g;
  g.p_jump = 0.05;  // rare 1000x jumps spread pending times over decades
  g.p_push = 0.65;  // a deep queue, then the drain tail empties it
  g.p_peek = 0.45;
  check_many(200, 10, g);
}

}  // namespace
}  // namespace airfedga::sim
