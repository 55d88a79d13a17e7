#pragma once

// Timing decorator for fl::Mechanism. It wraps a built mechanism and
// forwards every policy hook to it, timing each call with steady_clock.
// Mechanism::run is non-virtual and drives the hooks through
// SchedulingLoop, so a wrapped run executes exactly the code an unwrapped
// one does: the only additions are two clock reads per hook call. The
// transparency test checks that wrapped and unwrapped runs digest equal.
//
// Hooks run on the simulation thread of the run that owns the wrapper, so
// the counters need no synchronization; const hooks update them through
// `mutable` members.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fl/loop.hpp"

namespace airfedga::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Accumulated wall time and call count of one hook.
struct HookTime {
  double seconds = 0.0;
  std::size_t calls = 0;
};

/// Everything the decorator measured over one or more runs.
struct HookStats {
  HookTime check, cohorts, select, upload, aggregate_time, flush, aggregate, reweight;
  /// Gap between `check` returning and `make_cohorts` entering: Driver and
  /// SchedulingLoop construction inside Mechanism::run.
  double driver_init_s = 0.0;
  /// Members passed to `aggregate`, summed over calls.
  std::size_t aggregate_members = 0;
  /// Local-SGD samples in the aggregated updates: per member,
  /// local_steps x min(batch, shard) (the whole shard when batch is 0).
  std::size_t train_samples = 0;
  /// Wall time between consecutive `aggregate` entries of one run (ms):
  /// the wall cost of one simulated global round.
  std::vector<double> agg_interval_ms;
};

class TimedMechanism final : public fl::Mechanism {
 public:
  explicit TimedMechanism(std::unique_ptr<fl::Mechanism> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] const HookStats& stats() const { return stats_; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] fl::TriggerKind trigger() const override { return inner_->trigger(); }

  void check(const fl::FLConfig& cfg) const override {
    const Scope s(stats_.check);
    inner_->check(cfg);
    // A new run starts: its first aggregate has no predecessor.
    have_last_aggregate_ = false;
    check_done_ = Clock::now();
  }

  data::WorkerGroups make_cohorts(fl::SchedulingLoop& loop) override {
    stats_.driver_init_s += seconds_between(check_done_, Clock::now());
    const Scope s(stats_.cohorts);
    return inner_->make_cohorts(loop);
  }

  std::vector<std::size_t> select(fl::SchedulingLoop& loop, std::size_t cohort,
                                  std::size_t round) override {
    const Scope s(stats_.select);
    return inner_->select(loop, cohort, round);
  }

  [[nodiscard]] double upload_seconds(const fl::SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override {
    const Scope s(stats_.upload);
    return inner_->upload_seconds(loop, members, now);
  }

  [[nodiscard]] double aggregate_time(const fl::SchedulingLoop& loop, std::size_t cohort,
                                      const std::vector<std::size_t>& members,
                                      double start) const override {
    const Scope s(stats_.aggregate_time);
    return inner_->aggregate_time(loop, cohort, members, start);
  }

  bool should_flush(fl::SchedulingLoop& loop, const std::vector<std::size_t>& buffered) override {
    const Scope s(stats_.flush);
    return inner_->should_flush(loop, buffered);
  }

  std::vector<float> aggregate(fl::SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override {
    const Clock::time_point entry = Clock::now();
    if (have_last_aggregate_)
      stats_.agg_interval_ms.push_back(1e3 * seconds_between(last_aggregate_, entry));
    have_last_aggregate_ = true;
    last_aggregate_ = entry;
    count_samples(loop.config(), members);
    std::vector<float> out = inner_->aggregate(loop, members, w_prev, round);
    stats_.aggregate.seconds += seconds_between(entry, Clock::now());
    ++stats_.aggregate.calls;
    return out;
  }

  void reweight(const fl::SchedulingLoop& loop, std::span<const float> w_prev,
                std::vector<float>& w_next, double tau) const override {
    const Scope s(stats_.reweight);
    inner_->reweight(loop, w_prev, w_next, tau);
  }

 private:
  /// Adds the wall time of its lifetime to one hook's counters.
  class Scope {
   public:
    explicit Scope(HookTime& t) : t_(t), start_(Clock::now()) {}
    ~Scope() {
      t_.seconds += seconds_between(start_, Clock::now());
      ++t_.calls;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HookTime& t_;
    Clock::time_point start_;
  };

  void count_samples(const fl::FLConfig& cfg, const std::vector<std::size_t>& members) {
    stats_.aggregate_members += members.size();
    const std::size_t shards = cfg.partition.size();
    for (auto m : members) {
      const std::size_t shard = cfg.partition[m % shards].size();
      const std::size_t batch =
          cfg.batch_size == 0 ? shard : std::min(cfg.batch_size, shard);
      stats_.train_samples += cfg.local_steps * batch;
    }
  }

  std::unique_ptr<fl::Mechanism> inner_;
  mutable HookStats stats_;
  mutable Clock::time_point check_done_{};
  mutable Clock::time_point last_aggregate_{};
  mutable bool have_last_aggregate_ = false;
};

}  // namespace airfedga::perfbench
