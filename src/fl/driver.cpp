#include "fl/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace airfedga::fl {

void FLConfig::validate() const {
  if (train == nullptr || test == nullptr)
    throw std::invalid_argument("FLConfig: train/test datasets required");
  if (!model_factory) throw std::invalid_argument("FLConfig: model factory required");
  if (partition.empty()) throw std::invalid_argument("FLConfig: partition required");
  if (learning_rate <= 0.0f) throw std::invalid_argument("FLConfig: learning rate must be > 0");
  if (local_steps == 0) throw std::invalid_argument("FLConfig: local_steps must be >= 1");
  if (time_budget <= 0.0) throw std::invalid_argument("FLConfig: time budget must be > 0");
  if (eval_every == 0) throw std::invalid_argument("FLConfig: eval_every must be >= 1");
  if (energy_cap <= 0.0) throw std::invalid_argument("FLConfig: energy cap must be > 0");
  if (population != 0 && population < partition.size())
    throw std::invalid_argument("FLConfig: population must be 0 or >= the shard count");
  substrate.validate();
}

namespace {
std::size_t resolve_lanes(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}
}  // namespace

/// RAII scratch-model lease: acquires from the free list on construction
/// and returns the model on every exit path, so a lease can never leak a
/// lane's scratch model.
class Driver::ScratchLease {
 public:
  explicit ScratchLease(Driver& driver) : driver_(driver), model_(driver.acquire_scratch()) {}
  ~ScratchLease() { driver_.release_scratch(std::move(model_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  ml::Model& model() { return *model_; }

 private:
  Driver& driver_;
  std::unique_ptr<ml::Model> model_;
};

Driver::Driver(const FLConfig& cfg)
    : cfg_(&cfg),
      population_(cfg.population == 0 ? cfg.partition.size() : cfg.population),
      shards_(cfg.partition),
      scratch_(cfg.model_factory()),
      stats_(*cfg.train, cfg.partition, population_),
      cluster_(population_, cfg.cluster),
      substrate_(sim::make_substrate(population_, cfg.fading, cfg.latency, cfg.substrate,
                                     cfg.seed)),
      aircomp_([&] {
        auto c = cfg.aircomp;
        c.seed = util::splitmix64(cfg.seed ^ 0xA17C0);  // decorrelate from weights
        return c;
      }()) {
  cfg.validate();
  if (cfg.trace) obs::enable();
  // The constructing thread runs the simulation (event loop, aggregation);
  // label its trace track. TLS-only, so it is free on untraced runs.
  obs::name_this_thread("sim");
  warm_hits_ = &registry_.counter("pool.warm_hits");
  cold_replays_ = &registry_.counter("pool.cold_replays");
  energy_hist_ = &registry_.histogram(
      "substrate.energy_j", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
  csi_hist_ = &registry_.histogram(
      "substrate.csi_err", {0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0});
  model_dim_ = scratch_.num_parameters();
  // Every worker starts as a pure descriptor: a slot binding and a replay
  // counter. Worker instances materialize on lease from the pool.
  bound_.assign(population_, kNoSlot);
  cycles_.assign(population_, 0);

  // Execution engine: lanes_ concurrent training slots. A single lane runs
  // tasks inline on the simulation thread (no pool threads), which is the
  // reference serial schedule; more lanes spread workers across a private
  // pool. At most one leased scratch model is live per lane, so memory
  // stays O(lanes), not O(workers).
  lanes_ = resolve_lanes(cfg.threads);
  // The pool recycles down to this many slots: enough that warm
  // reuse covers back-to-back cohorts (RNG replay makes the recycling
  // pattern digest-neutral, so a machine-dependent lane count here is
  // safe).
  pool_target_ = std::max({2 * lanes_, 2 * cfg.cohort_size, std::size_t{16}});
  const std::size_t n_scratch = std::min(lanes_, population_);
  scratch_free_.reserve(n_scratch);
  for (std::size_t i = 0; i < n_scratch; ++i)
    scratch_free_.push_back(std::make_unique<ml::Model>(cfg.model_factory()));
  pool_ = std::make_unique<util::ThreadPool>(lanes_ > 1 ? lanes_ : 0);

  // Fixed evaluation subset: the first eval_samples test points (the test
  // set is already shuffled at generation time).
  const std::size_t n_eval = std::min(cfg.eval_samples, cfg.test->size());
  if (n_eval == 0) throw std::invalid_argument("Driver: empty evaluation set");
  std::vector<std::size_t> idx(n_eval);
  for (std::size_t i = 0; i < n_eval; ++i) idx[i] = i;
  eval_xs_ = ml::gather_rows(cfg.test->xs, idx);
  eval_ys_.assign(cfg.test->ys.begin(), cfg.test->ys.begin() + static_cast<std::ptrdiff_t>(n_eval));
}

Driver::~Driver() {
  // Collect any jobs a mechanism left in flight when it stopped early, so
  // no task outlives the state it references (the pool joins right after).
  for (auto& s : slots_) {
    if (s.pending.valid()) {
      try {
        s.pending.get();
      } catch (...) {  // mechanism already returned; nothing to rethrow into
      }
    }
  }
}

std::unique_ptr<ml::Model> Driver::acquire_scratch() {
  std::scoped_lock lock(scratch_mutex_);
  if (scratch_free_.empty()) {
    // Reachable when evaluation helpers overlap in-flight training (both
    // hold leases); a fresh model keeps the engine correct at the cost of
    // one allocation, and the free list grows to cover the overlap.
    return std::make_unique<ml::Model>(cfg_->model_factory());
  }
  auto m = std::move(scratch_free_.back());
  scratch_free_.pop_back();
  return m;
}

void Driver::release_scratch(std::unique_ptr<ml::Model> m) {
  std::scoped_lock lock(scratch_mutex_);
  scratch_free_.push_back(std::move(m));
}

const Worker& Driver::worker(std::size_t i) const {
  if (i >= population_) throw std::out_of_range("Driver::worker: id out of range");
  const std::size_t slot = bound_[i];
  if (slot == kNoSlot) throw std::logic_error("Driver::worker: worker not materialized");
  return *slots_[slot].worker;
}

Worker& Driver::worker(std::size_t i) {
  return const_cast<Worker&>(std::as_const(*this).worker(i));
}

bool Driver::worker_materialized(std::size_t i) const {
  if (i >= population_) throw std::out_of_range("Driver::worker_materialized: id out of range");
  return bound_[i] != kNoSlot;
}

util::Rng Driver::worker_rng(std::size_t i) const {
  // fork() is const on the parent, so Rng(seed).fork(1000 + i) reproduces
  // worker i's private stream at any time without the other workers
  // existing.
  return util::Rng(cfg_->seed).fork(1000 + i);
}

Driver::Slot& Driver::lease_slot(std::size_t i) {
  std::size_t slot = bound_.at(i);
  if (slot != kNoSlot) {
    // Warm: state survived since the last release (or the worker is still
    // leased in an ongoing cycle); no replay — the engine state is live.
    if (!slots_[slot].leased) {
      const auto it = std::find(released_.begin(), released_.end(), slot);
      if (it == released_.end())
        throw std::logic_error("Driver::lease_slot: bound slot missing from release list");
      released_.erase(it);
      slots_[slot].leased = true;
    }
    warm_hits_->add();
    return slots_[slot];
  }
  const auto shard = shards_.shard(i % shards_.num_shards());
  if (slots_.size() >= pool_target_ && !released_.empty()) {
    // Recycle the oldest released slot; its previous owner goes cold and
    // will replay its RNG stream if selected again.
    slot = released_.front();
    released_.erase(released_.begin());
    Slot& s = slots_[slot];
    bound_[s.owner] = kNoSlot;
    s.worker->rebind(i, shard, worker_rng(i));
    s.owner = i;
    s.leased = true;
  } else {
    // Below target, or every slot is leased (a cohort larger than the
    // pool): grow.
    slot = slots_.size();
    slots_.push_back({std::make_unique<Worker>(i, *cfg_->train, shard, worker_rng(i)), i});
  }
  // Each of the worker's completed local updates consumed local_steps batch
  // draws: replay them to reach the engine state its stream would have had
  // if it had never lost its slot.
  slots_[slot].worker->replay_rng(cycles_[i] * cfg_->local_steps, cfg_->batch_size);
  cold_replays_->add();
  bound_[i] = slot;
  return slots_[slot];
}

void Driver::release_workers(const std::vector<std::size_t>& members) {
  for (auto m : members) {
    const std::size_t slot = bound_.at(m);
    if (slot == kNoSlot)
      throw std::logic_error("Driver::release_workers: worker was never materialized");
    Slot& s = slots_[slot];
    if (!s.leased) continue;          // already released (repeat member)
    if (s.pending.valid()) continue;  // retraining already; keep the lease
    s.leased = false;
    released_.push_back(slot);
  }
}

void Driver::begin_training(const std::vector<std::size_t>& members,
                            std::span<const float> global, double deadline) {
  // Snapshot the global model once: the server may install a newer version
  // while these jobs are still running (asynchronous groups), and every
  // member of the batch must train from the same w_t it was sent.
  auto snapshot = std::make_shared<const std::vector<float>>(global.begin(), global.end());
  const float lr = cfg_->learning_rate;
  const std::size_t steps = cfg_->local_steps;
  const std::size_t batch = cfg_->batch_size;
  for (auto m : members) {
    const std::size_t bound = bound_.at(m);
    if (bound != kNoSlot && slots_[bound].pending.valid())
      throw std::logic_error("Driver::begin_training: worker already has a job in flight");
    // Materialize (or warm-reuse) the worker now, on the simulation thread,
    // and count the update it is about to run so a future
    // rematerialization replays the right number of batch draws.
    Slot& s = lease_slot(m);
    ++cycles_[m];
    Worker& w = *s.worker;
    // The batch's virtual aggregation deadline is the scheduling key:
    // pending jobs start earliest-deadline-first, so lanes go to the group
    // whose barrier the simulation will reach next.
    s.pending = pool_->submit_prioritized(deadline, [this, &w, snapshot, lr, steps, batch] {
      // On a pool lane, the worker-thread flag already pins the ML kernels
      // underneath to their serial fallback (nesting rule: no deadlock, no
      // oversubscription). Inline 1-lane training instead keeps the global
      // pool's GEMM fan-out, like the seed engine — a wall-time choice
      // only: chunked kernels write disjoint output ranges, so either
      // schedule produces the same bits.
      //
      // Cooperative GEMM: with multiple lanes, installing the cooperation
      // scope lets this worker's large GEMMs recruit lanes that currently
      // have no training job (fewer runnable groups than lanes). Helpers
      // compute fixed disjoint output tiles, so this too is a wall-time
      // choice that cannot change bits.
      obs::Span span("worker", "worker.local_update");
      ScratchLease lease(*this);
      std::optional<util::ThreadPool::CooperationScope> coop;
      if (cfg_->cooperative_gemm && lanes_ > 1) coop.emplace(*pool_);
      w.local_update(lease.model(), *snapshot, lr, steps, batch);
    });
  }
}

void Driver::finish_training(const std::vector<std::size_t>& members) {
  obs::Span span("driver", "driver.barrier");
  const auto t0 = std::chrono::steady_clock::now();
  for (auto m : members) {
    const std::size_t slot = bound_.at(m);
    if (slot != kNoSlot && slots_[slot].pending.valid()) slots_[slot].pending.get();
  }
  engine_stats_.barrier_seconds += util::wall_seconds_since(t0);
  ++engine_stats_.barriers;
}

void Driver::train_workers(const std::vector<std::size_t>& members,
                           std::span<const float> global, double deadline) {
  begin_training(members, global, deadline);
  finish_training(members);
}

std::vector<float> Driver::initial_model() {
  util::Rng init_rng = util::Rng(cfg_->seed).fork(0x1717);
  ml::Model fresh = cfg_->model_factory();
  fresh.init(init_rng);
  return fresh.parameters();
}

ml::EvalResult Driver::evaluate(std::span<const float> model) {
  obs::Span span("driver", "driver.eval");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = eval_ys_.size();
  const std::size_t batch = std::max<std::size_t>(1, cfg_->eval_batch);
  const std::size_t n_batches = (n + batch - 1) / batch;

  ml::EvalResult result;
  if (lanes_ <= 1 || n_batches <= 1) {
    scratch_.set_parameters(model);
    result = scratch_.evaluate(eval_xs_, eval_ys_, batch);
  } else {
    result = evaluate_sharded(model, n, n_batches);
  }
  engine_stats_.eval_seconds += util::wall_seconds_since(t0);
  ++engine_stats_.evals;
  return result;
}

ml::EvalResult Driver::evaluate_sharded(std::span<const float> model, std::size_t n,
                                        std::size_t n_batches) {
  const std::size_t batch = std::max<std::size_t>(1, cfg_->eval_batch);

  // Shard boundaries are the serial loop's batch boundaries — fixed by
  // eval_batch alone, never by the lane count — and each shard's forward
  // pass is bit-deterministic whatever thread or model instance runs it
  // (same parameters, kernels whose chunking cannot change results). The
  // per-shard sums land in per-shard slots and are reduced below in shard
  // order, so this path reproduces the serial evaluate bit-for-bit.
  //
  // The state lives in a shared_ptr because helper tasks are fire-and-
  // forget: the simulation thread waits only until every *claimed* shard
  // completed, never for helpers still queued behind running training
  // jobs. A helper that only gets a lane after the shard list is drained
  // finds nothing to claim and exits; it may outlive this call, touching
  // only the shared state (and the scratch lease, which ~Driver's pool
  // join covers).
  struct Shared {
    std::vector<float> params;       ///< parameter snapshot for late helpers
    std::vector<ml::EvalSums> sums;  ///< one slot per shard
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t completed = 0;       ///< shards finished (guarded by mutex)
    std::exception_ptr error;        ///< first failure (guarded by mutex)
  };
  auto shared = std::make_shared<Shared>();
  shared->params.assign(model.begin(), model.end());
  shared->sums.resize(n_batches);

  auto run_shards = [this, shared, n, batch, n_batches](ml::Model& m) {
    // Parameters load lazily on the first claimed shard, so a helper that
    // arrives after the list drained pays nothing.
    bool loaded = false;
    for (std::size_t b = shared->next.fetch_add(1); b < n_batches;
         b = shared->next.fetch_add(1)) {
      if (!loaded) {
        m.set_parameters(shared->params);
        loaded = true;
      }
      const std::size_t begin = b * batch;
      shared->sums[b] = m.evaluate_range(eval_xs_, eval_ys_, begin, std::min(n, begin + batch));
      std::scoped_lock lock(shared->mutex);
      if (++shared->completed == n_batches) shared->cv.notify_one();
    }
  };
  auto record_error = [shared, n_batches] {
    shared->next.store(n_batches);  // stop further claims
    std::scoped_lock lock(shared->mutex);
    if (!shared->error) shared->error = std::current_exception();
    shared->cv.notify_one();
  };

  // Helpers go in at kUrgent: the simulation thread is blocked on this
  // evaluation, so shards must jump ahead of queued training jobs (running
  // jobs are not preempted — but the simulation thread shares the shard
  // work below, so evaluation progresses even with every lane busy).
  for (std::size_t i = 1; i < std::min(lanes_, n_batches); ++i) {
    pool_->submit_prioritized(util::ThreadPool::kUrgent, [this, shared, run_shards,
                                                          record_error, n_batches] {
      // A helper that only got a lane after the shard list drained must
      // not lease a scratch model (possibly allocating one: training may
      // hold every lease) just to find nothing to do.
      if (shared->next.load(std::memory_order_relaxed) >= n_batches) return;
      try {
        ScratchLease lease(*this);
        run_shards(lease.model());
      } catch (...) {
        record_error();
      }
    });
  }

  try {
    run_shards(scratch_);  // the eval scratch is simulation-thread-only
  } catch (...) {
    record_error();
  }
  {
    std::unique_lock lock(shared->mutex);
    // Every shard index is claimed exactly once (atomic fetch_add), and a
    // claimed shard either completes or records an error, so this wait
    // always terminates.
    shared->cv.wait(lock, [&] { return shared->error || shared->completed == n_batches; });
    if (shared->error) std::rethrow_exception(shared->error);
  }

  double loss_sum = 0.0;
  double acc_sum = 0.0;
  for (const auto& s : shared->sums) {  // fixed shard order: the serial reduction
    loss_sum += s.loss_sum;
    acc_sum += s.acc_sum;
  }
  return {loss_sum / static_cast<double>(n), acc_sum / static_cast<double>(n)};
}

EngineStats Driver::engine_stats() const {
  EngineStats s = engine_stats_;
  const auto coop = pool_->coop_counters();
  s.coop_gemms = coop.regions;
  s.coop_helper_tiles = coop.helper_tiles;
  return s;
}

obs::MetricsSnapshot Driver::metrics_snapshot() {
  const auto coop = pool_->coop_counters();
  registry_.counter("pool.lanes").set(lanes_);
  registry_.counter("pool.tasks").set(pool_->tasks_run());
  registry_.counter("pool.busy_ns").set(pool_->busy_ns());
  registry_.counter("gemm.coop_regions").set(coop.regions);
  registry_.counter("gemm.coop_helper_tiles").set(coop.helper_tiles);
  registry_.counter("substrate.depleted").set(substrate_->depleted_count());
  return registry_.snapshot();
}

void Driver::member_gains(const std::vector<std::size_t>& members, std::size_t round,
                          std::vector<double>& out) {
  const obs::Span span("substrate", "substrate.member_gains");
  if (std::adjacent_find(members.begin(), members.end(), std::greater_equal<>()) ==
      members.end()) {
    substrate_->member_gains(members, round, out);
    return;
  }
  gain_ids_.assign(members.begin(), members.end());
  std::sort(gain_ids_.begin(), gain_ids_.end());
  gain_ids_.erase(std::unique(gain_ids_.begin(), gain_ids_.end()), gain_ids_.end());
  substrate_->member_gains(gain_ids_, round, gain_vals_);
  out.resize(members.size());
  for (std::size_t j = 0; j < members.size(); ++j)
    out[j] = gain_vals_[static_cast<std::size_t>(
        std::lower_bound(gain_ids_.begin(), gain_ids_.end(), members[j]) - gain_ids_.begin())];
}

core::PowerControlResult Driver::power_for_group(const std::vector<std::size_t>& members,
                                                 std::size_t round) {
  member_gains(members, round, member_gains_);
  return power_for_group(members, member_gains_);
}

core::PowerControlResult Driver::power_for_group(const std::vector<std::size_t>& members,
                                                 std::span<const double> gains) {
  if (members.empty()) throw std::invalid_argument("power_for_group: empty group");
  core::PowerControlInput in;
  in.sigma0_sq = cfg_->aircomp.sigma0_sq;
  in.gains.assign(gains.begin(), gains.end());
  double w_sq = 0.0;
  double group_data = 0.0;
  for (auto m : members) {
    const Worker& w = worker(m);
    if (!w.has_model())
      throw std::logic_error("power_for_group: member has no trained local model");
    w_sq = std::max(w_sq, w.model_norm_sq());
    group_data += static_cast<double>(w.data_size());
    in.data_sizes.push_back(static_cast<double>(w.data_size()));
    in.energy_caps.push_back(cfg_->energy_cap);
  }
  in.model_bound_sq = std::max(w_sq, 1e-12);
  in.group_data = group_data;
  return core::optimize_power(in);
}

std::vector<float> Driver::aircomp_aggregate(const std::vector<std::size_t>& members,
                                             std::span<const float> w_prev, std::size_t round,
                                             double& energy_joules) {
  const obs::Span span("aircomp", "aircomp.aggregate");
  member_gains(members, round, member_gains_);
  const auto pc = power_for_group(members, member_gains_);
  const auto csi = substrate_->csi_scales(round);

  channel::AirCompChannel::Input in;
  in.w_prev = w_prev;
  in.sigma = pc.sigma;
  in.eta = pc.eta;
  in.total_data = static_cast<double>(stats_.total_size());
  in.gains = member_gains_;
  for (auto m : members) {
    const Worker& w = worker(m);
    in.local_models.push_back(w.local_model());
    in.data_sizes.push_back(static_cast<double>(w.data_size()));
    if (!csi.empty()) {
      in.csi_scale.push_back(csi[m]);
      csi_hist_->record(csi[m]);
    }
  }
  auto out = aircomp_.aggregate(in);
  for (std::size_t i = 0; i < out.energies.size(); ++i) {
    const double e = out.energies[i];
    energy_joules += e;
    energy_hist_->record(e);
    substrate_->charge(members[i], e);
  }
  return std::move(out.w_next);
}

std::vector<float> Driver::oma_aggregate(const std::vector<std::size_t>& members,
                                         std::span<const float> w_prev) {
  std::vector<std::span<const float>> models;
  std::vector<double> sizes;
  for (auto m : members) {
    const Worker& w = worker(m);
    if (!w.has_model()) throw std::logic_error("oma_aggregate: member has no model");
    models.push_back(w.local_model());
    sizes.push_back(static_cast<double>(w.data_size()));
  }
  const double upload_joules = substrate_->oma_upload_joules();
  if (upload_joules > 0.0)
    for (auto m : members) substrate_->charge(m, upload_joules);
  return channel::AirCompChannel::ideal_aggregate(w_prev, models, sizes,
                                                  static_cast<double>(stats_.total_size()));
}

void Driver::maybe_record(Metrics& metrics, std::size_t round, double time, double energy,
                          double staleness, std::span<const float> model) {
  if (round != 1 && round % cfg_->eval_every != 0) return;
  const auto ev = evaluate(model);
  metrics.record({time, round, ev.loss, ev.accuracy, energy, staleness});
}

bool Driver::should_stop(const Metrics& metrics) const {
  if (cfg_->stop_at_accuracy < 0.0) return false;
  const auto& pts = metrics.points();
  if (pts.size() < 3) return false;
  const double mean3 = (pts[pts.size() - 1].accuracy + pts[pts.size() - 2].accuracy +
                        pts[pts.size() - 3].accuracy) / 3.0;
  return mean3 >= cfg_->stop_at_accuracy;
}

}  // namespace airfedga::fl
