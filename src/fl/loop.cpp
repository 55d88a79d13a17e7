#include "fl/loop.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace airfedga::fl {

namespace {
const char* trigger_slug(TriggerKind t) {
  switch (t) {
    case TriggerKind::kRoundBarrier: return "round_barrier";
    case TriggerKind::kCohortTimer: return "cohort_timer";
    case TriggerKind::kGroupReady: return "group_ready";
    case TriggerKind::kReadyBuffer: return "ready_buffer";
    default: return "unknown";
  }
}
}  // namespace

// ---------------------------------------------------------------- policy

Metrics Mechanism::run(const FLConfig& cfg) {
  check(cfg);  // knob validation precedes any run-state construction
  Driver driver(cfg);
  SchedulingLoop loop(driver, *this);
  return loop.run();
}

void Mechanism::check(const FLConfig&) const {}

std::vector<std::size_t> Mechanism::select(SchedulingLoop& loop, std::size_t cohort,
                                           std::size_t /*round*/) {
  return loop.cohorts().at(cohort);
}

double Mechanism::aggregate_time(const SchedulingLoop& loop, std::size_t /*cohort*/,
                                 const std::vector<std::size_t>& members, double start) const {
  double compute = 0.0;
  for (auto m : members) compute = std::max(compute, loop.local_times()[m]);
  return start + (compute + upload_seconds(loop, members, start));
}

bool Mechanism::should_flush(SchedulingLoop&, const std::vector<std::size_t>&) { return true; }

void Mechanism::reweight(const SchedulingLoop&, std::span<const float>, std::vector<float>&,
                         double) const {}

// ------------------------------------------------------------------ loop

SchedulingLoop::SchedulingLoop(Driver& driver, Mechanism& policy)
    : driver_(driver),
      policy_(policy),
      trigger_(policy.trigger()) {
  if (driver_.config().cohort_size != 0 &&
      (trigger_ == TriggerKind::kGroupReady || trigger_ == TriggerKind::kReadyBuffer))
    throw std::invalid_argument(policy_.name() +
                                ": cohort_size sampling requires a round-barrier or "
                                "timer-triggered mechanism");
  local_times_ = driver_.cluster().local_times();
  cohorts_ = policy_.make_cohorts(*this);
  if (cohorts_.empty()) throw std::logic_error(policy_.name() + ": make_cohorts returned none");
  if (trigger_ == TriggerKind::kRoundBarrier && cohorts_.size() != 1)
    throw std::logic_error(policy_.name() + ": a round barrier needs exactly one cohort");
  cohort_of_.assign(driver_.num_workers(), 0);
  for (std::size_t j = 0; j < cohorts_.size(); ++j)
    for (auto m : cohorts_[j]) cohort_of_[m] = j;
  if (driver_.config().cohort_size != 0) {
    // Size the cohort draw's buffers for the largest cohort now, before any
    // round's selection copy exists: allocated in the first round, they
    // would sit between that copy and the next one in the heap and keep
    // the freed copy from being reused, raising peak RSS by a copy.
    std::size_t largest = 0;
    for (const auto& c : cohorts_) largest = std::max(largest, c.size());
    cohort_scratch_.log.reserve(largest);
    cohort_scratch_.bits.reserve((largest + 63) / 64);
  }
  server_.emplace(driver_.initial_model(), cohorts_.size());
  active_.resize(cohorts_.size());
  substrate_ = &driver_.substrate();
  realism_ = substrate_->time_varying();
  dropouts_ = &driver_.registry().counter("substrate.dropouts");

  // Both histograms hold virtual-time quantities, so their contents are a
  // pure function of the scenario (lane counts never change them).
  pending_hist_ = &driver_.registry().histogram(
      "eventq.pending", {0, 1, 2, 4, 8, 16, 32, 64, 128, 512, 2048, 8192, 32768});
  latency_hist_ = &driver_.registry().histogram(
      std::string("latency.") + trigger_slug(trigger_), {1, 2, 4, 8, 16, 32, 64, 128, 256});
}

std::vector<std::size_t> SchedulingLoop::filter_selectable(std::vector<std::size_t> candidates,
                                                           double time) const {
  if (!realism_) return candidates;
  std::vector<std::size_t> kept;
  kept.reserve(candidates.size());
  for (auto m : candidates)
    if (substrate_->selectable(m, time)) kept.push_back(m);
  return kept;
}

void SchedulingLoop::seed_queue() {
  // Availability queues nothing: each worker's cursor starts at its first
  // transition, and park() replays the chain only when a cohort finds
  // nobody selectable. A static substrate never parks.
  if (realism_) {
    toggle_.resize(driver_.num_workers());
    for (std::size_t i = 0; i < toggle_.size(); ++i)
      toggle_[i] = substrate_->next_transition(i, 0.0);
  }
  switch (trigger_) {
    case TriggerKind::kRoundBarrier:
      start_sync_cycle();
      break;
    case TriggerKind::kCohortTimer:
      for (std::size_t j = 0; j < cohorts_.size(); ++j) start_timer_cycle(j, 0.0);
      break;
    case TriggerKind::kGroupReady:
      // Round 0 submits training one cohort at a time (each batch carries
      // its own aggregation deadline) but schedules the READY events in
      // global worker order — the seed schedule of Alg. 1 lines 5-8.
      // Time-varying substrate: only workers selectable at t = 0 join the
      // first cycle; a cohort with nobody online parks instead.
      for (std::size_t j = 0; j < cohorts_.size(); ++j) {
        active_[j] = filter_selectable(cohorts_[j], 0.0);
        if (realism_ && active_[j].empty()) {
          park(j, 0.0);
          continue;
        }
        driver_.begin_training(active_[j], server_->global_model(),
                               policy_.aggregate_time(*this, j, active_[j], 0.0));
      }
      for (std::size_t i = 0; i < driver_.num_workers(); ++i) {
        if (realism_ && !substrate_->selectable(i, 0.0)) continue;
        queue_.schedule(local_times_[i], kEvReady, i);
      }
      break;
    case TriggerKind::kReadyBuffer: {
      std::vector<std::size_t> everyone;
      for (const auto& cohort : cohorts_)
        everyone.insert(everyone.end(), cohort.begin(), cohort.end());
      start_buffer_cycle(everyone, 0.0);
      break;
    }
  }
}

Metrics SchedulingLoop::run() {
  const FLConfig& cfg = driver_.config();
  seed_queue();
  while (!queue_.empty()) {
    // Cooperative cancellation (execution-only): checked once per event so
    // a timeout watchdog or shutdown can stop a run at a clean boundary.
    if (cfg.cancel != nullptr && cfg.cancel->load(std::memory_order_relaxed))
      throw RunCancelled("run cancelled at virtual t=" + std::to_string(queue_.now()));
    // Budget stop via lookahead: the event past the budget is never
    // popped, so the virtual clock stops where every mechanism's original
    // loop stopped.
    if (queue_.peek_time() > cfg.time_budget) break;
    const auto ev = queue_.pop();
    pending_hist_->record(static_cast<double>(queue_.size()));
    if (ev.kind == kEvReady) {
      on_ready(ev);
    } else if (ev.kind == kEvSubstrate) {
      on_substrate(ev);
    } else if (!on_aggregate(ev)) {
      break;
    }
  }
  metrics_.set_final_model(server_->model_vector());
  metrics_.set_engine_stats(driver_.engine_stats());
  metrics_.set_obs_snapshot(driver_.metrics_snapshot());
  return std::move(metrics_);
}

std::vector<std::size_t> SchedulingLoop::sample_cohort(std::vector<std::size_t> members,
                                                       std::size_t round, std::size_t cohort) {
  const std::size_t k = driver_.config().cohort_size;
  if (k == 0 || members.size() <= k) return members;
  obs::Span span("loop", "loop.sample_cohort");
  // One self-contained stream per (round, cohort): reproducible from the
  // config alone, uncorrelated with the weight/substrate streams.
  util::Rng rng(util::splitmix64(driver_.config().seed ^
                                 (0xC04052ULL + round * 0x9E3779B1ULL + cohort * 0x85EBCA77ULL)));
  rng.sample_without_replacement(members.size(), k, cohort_pos_, cohort_scratch_);
  std::sort(cohort_pos_.begin(), cohort_pos_.end());  // keep members in selection order
  std::vector<std::size_t> picked;
  picked.reserve(k);
  for (auto p : cohort_pos_) picked.push_back(members[p]);
  return picked;
}

void SchedulingLoop::start_sync_cycle() {
  const FLConfig& cfg = driver_.config();
  while (cycle_ < cfg.max_rounds) {
    ++cycle_;
    auto members = sample_cohort(policy_.select(*this, 0, cycle_), cycle_, 0);
    if (members.empty()) continue;  // selection skip: next round, no time passes
    if (realism_) {
      members = filter_selectable(std::move(members), queue_.now());
      if (members.empty()) {
        // Nobody online: retry this same round once availability returns.
        --cycle_;
        park(0, queue_.now());
        return;
      }
    }
    const double t_agg = policy_.aggregate_time(*this, 0, members, queue_.now());
    if (t_agg > cfg.time_budget) return;  // round would overrun: end of run
    latency_hist_->record(t_agg - queue_.now());
    active_[0] = std::move(members);
    driver_.begin_training(active_[0], server_->global_model(), t_agg);
    queue_.schedule(t_agg, kEvAggregate, 0);
    return;
  }
}

void SchedulingLoop::start_timer_cycle(std::size_t cohort, double start) {
  auto members =
      sample_cohort(policy_.select(*this, cohort, server_->round() + 1), server_->round() + 1,
                    cohort);
  if (members.empty()) return;  // cohort retires: no further events for it
  if (realism_) {
    members = filter_selectable(std::move(members), start);
    if (members.empty()) {
      park(cohort, start);
      return;
    }
  }
  const double t_agg = policy_.aggregate_time(*this, cohort, members, start);
  latency_hist_->record(t_agg - start);
  active_[cohort] = std::move(members);
  driver_.begin_training(active_[cohort], server_->global_model(), t_agg);
  queue_.schedule(t_agg, kEvAggregate, cohort);
}

void SchedulingLoop::start_ready_cycle(std::size_t cohort, double start) {
  active_[cohort] = filter_selectable(cohorts_[cohort], start);
  if (realism_ && active_[cohort].empty()) {
    park(cohort, start);
    return;
  }
  const double t_agg = policy_.aggregate_time(*this, cohort, active_[cohort], start);
  latency_hist_->record(t_agg - start);
  driver_.begin_training(active_[cohort], server_->global_model(), t_agg);
  for (auto m : active_[cohort]) queue_.schedule(start + local_times_[m], kEvReady, m);
}

void SchedulingLoop::start_buffer_cycle(const std::vector<std::size_t>& members, double start) {
  for (auto m : members) {
    if (realism_ && !substrate_->selectable(m, start)) {
      // The worker sits out until it comes back online (buffer cohorts
      // are singletons, so parking its cohort parks just the worker).
      park(cohort_of_[m], start);
      continue;
    }
    const std::vector<std::size_t> solo{m};
    const double t_ready = start + local_times_[m];
    // The flush time is unknowable here (it depends on the rest of the
    // buffer), so the deadline tag is the earliest it could be: the
    // worker's own READY plus one upload.
    const double deadline = t_ready + policy_.upload_seconds(*this, solo, t_ready);
    latency_hist_->record(deadline - start);
    driver_.begin_training(solo, server_->global_model(), deadline);
    queue_.schedule(t_ready, kEvReady, m);
  }
}

void SchedulingLoop::on_ready(const sim::Event& ev) {
  if (trigger_ == TriggerKind::kGroupReady) {
    const std::size_t j = cohort_of_[ev.actor];
    // Intra-group alignment: EXECUTE goes out when the last member
    // reports READY; the concurrent transmission then takes one upload.
    // (active_[j] == cohorts_[j] on a static substrate; under churn it is
    // the subset that joined this cycle.)
    if (server_->ready(j, active_[j].size()))
      queue_.schedule(ev.time + policy_.upload_seconds(*this, active_[j], ev.time),
                      kEvAggregate, j);
    return;
  }
  // kReadyBuffer: queue the upload and let the policy decide whether the
  // buffer ships as one aggregation now.
  buffer_.push_back(ev.actor);
  if (policy_.should_flush(*this, buffer_)) {
    const double t_agg = ev.time + policy_.upload_seconds(*this, buffer_, ev.time);
    flights_.push_back(std::move(buffer_));
    buffer_.clear();
    queue_.schedule(t_agg, kEvAggregate, flights_.size() - 1);
  }
}

bool SchedulingLoop::on_aggregate(const sim::Event& ev) {
  obs::Span span("loop", "loop.aggregate");
  const FLConfig& cfg = driver_.config();
  const bool buffered = trigger_ == TriggerKind::kReadyBuffer;
  const std::vector<std::size_t> members =
      buffered ? std::move(flights_[ev.actor]) : std::move(active_[ev.actor]);

  // Fixed-order barrier: collect the members' in-flight jobs before
  // reading their local models; every other cohort keeps training.
  driver_.finish_training(members);

  // Mid-round dropout (time-varying substrate): a member that went offline
  // between starting its cycle and this aggregation event contributes
  // nothing. Depletion is not re-checked here — the energy this very
  // aggregation costs is charged inside it and gates the *next* cycle.
  const std::vector<std::size_t>* agg = &members;
  std::vector<std::size_t> kept;
  if (realism_) {
    kept.reserve(members.size());
    for (auto m : members)
      if (substrate_->available(m, ev.time)) kept.push_back(m);
    dropouts_->add(members.size() - kept.size());
    agg = &kept;
    if (kept.empty()) {
      // Everyone dropped: abandon the aggregation (no commit, no record)
      // and restart the cycle — if nobody is back online, the cohort parks.
      if (trigger_ == TriggerKind::kGroupReady) server_->reset_ready(ev.actor);
      driver_.release_workers(members);
      restart_cycle(ev.actor, members, ev.time);
      return true;
    }
  }

  double tau = 0.0;
  if (buffered) {
    std::size_t worst = 0;
    for (auto m : *agg) worst = std::max(worst, server_->staleness(cohort_of_[m]));
    tau = static_cast<double>(worst);
  } else if (trigger_ != TriggerKind::kRoundBarrier) {
    tau = static_cast<double>(server_->staleness(ev.actor));
  }

  // Synchronous mechanisms index fading and records by the round-barrier
  // counter (selection skips advance it without an aggregation);
  // asynchronous ones by the round this commit will get.
  const std::size_t round =
      trigger_ == TriggerKind::kRoundBarrier ? cycle_ : server_->round() + 1;

  auto w_next = policy_.aggregate(*this, *agg, server_->global_model(), round);
  policy_.reweight(*this, server_->global_model(), w_next, tau);

  if (buffered) {
    std::vector<std::size_t> groups;
    groups.reserve(agg->size());
    for (auto m : *agg) groups.push_back(cohort_of_[m]);
    server_->complete_round(groups, std::move(w_next));
  } else {
    server_->complete_round(ev.actor, std::move(w_next));
  }

  driver_.maybe_record(metrics_, round, ev.time, energy_, tau, server_->global_model());
  // The members' local models are consumed; hand their pool slots back for
  // recycling. Restart paths below may re-lease the same workers warm.
  driver_.release_workers(members);
  if (server_->round() >= cfg.max_rounds || driver_.should_stop(metrics_)) return false;

  // The cohort(s) just received w_t; their next local cycle starts now and
  // overlaps with everyone else's in-flight training.
  restart_cycle(ev.actor, members, ev.time);
  return true;
}

void SchedulingLoop::on_substrate(const sim::Event& ev) {
  // A parked cohort's wake-up: one of the workers park() scanned just came
  // online, so the cohort's cycle restarts (a buffer cohort is a singleton,
  // so its worker restarts).
  restart_cycle(ev.actor, cohorts_[ev.actor], ev.time);
}

void SchedulingLoop::park(std::size_t cohort, double time) {
  obs::Span span("loop", "loop.park");
  // Whose coming online ends the wait: any worker for a round barrier, the
  // cohort's members otherwise. Depletion cannot change while the cohort
  // is parked (charges hit only aggregated members, and cohorts partition
  // the workers), so a depleted worker never wakes it.
  double wake = std::numeric_limits<double>::infinity();
  const auto scan = [&](std::size_t m) {
    double& cursor = toggle_[m];
    if (cursor < 0.0 || substrate_->depleted(m)) return;
    // Replay the chain from the cursor instead of asking for
    // next_transition(m, time): a fresh query can land an ulp away from
    // the chain's transition times.
    while (cursor <= time) cursor = substrate_->next_transition(m, cursor);
    double t = cursor;
    while (!substrate_->available(m, t)) t = substrate_->next_transition(m, t);
    wake = std::min(wake, t);
  };
  if (trigger_ == TriggerKind::kRoundBarrier) {
    for (std::size_t m = 0; m < toggle_.size(); ++m) scan(m);
  } else {
    for (auto m : cohorts_[cohort]) scan(m);
  }
  // No wake-up when nobody can come back: the cohort stays parked.
  if (wake < std::numeric_limits<double>::infinity()) queue_.schedule(wake, kEvSubstrate, cohort);
}

void SchedulingLoop::restart_cycle(std::size_t cohort, const std::vector<std::size_t>& workers,
                                   double time) {
  switch (trigger_) {
    case TriggerKind::kRoundBarrier:
      start_sync_cycle();
      break;
    case TriggerKind::kCohortTimer:
      start_timer_cycle(cohort, time);
      break;
    case TriggerKind::kGroupReady:
      start_ready_cycle(cohort, time);
      break;
    case TriggerKind::kReadyBuffer:
      start_buffer_cycle(workers, time);
      break;
  }
}

}  // namespace airfedga::fl
