#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/aircomp.hpp"
#include "channel/fading.hpp"
#include "channel/latency.hpp"
#include "core/power_control.hpp"
#include "sim/substrate.hpp"
#include "data/data_stats.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "fl/metrics.hpp"
#include "fl/worker.hpp"
#include "ml/model.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "util/thread_pool.hpp"

/// \namespace airfedga
/// Root namespace of the Air-FedGA reproduction library.

/// \namespace airfedga::fl
/// Federated-learning layer: the execution-engine driver, workers, the
/// parameter server, run metrics, and the paper's mechanisms (Table I).

namespace airfedga::fl {

/// Everything a federated training run needs (paper §VI-A system setup).
/// The same config drives all seven mechanisms so comparisons differ only
/// in the mechanism itself.
struct FLConfig {
  // Problem
  const data::Dataset* train = nullptr;  ///< shared training set (not owned)
  const data::Dataset* test = nullptr;   ///< held-out evaluation set (not owned)
  data::Partition partition;             ///< per-worker sample indices
  ml::ModelFactory model_factory;        ///< builds the (shared) architecture

  // Local training (Eq. 4)
  float learning_rate = 0.05f;      ///< SGD step size
  std::size_t local_steps = 1;      ///< SGD steps per local round
  std::size_t batch_size = 32;      ///< 0 = full local shard (paper's setting)

  // Population scale-out
  /// Worker population size. 0 keeps the legacy one-worker-per-shard
  /// layout (population = partition.size()); a value > partition.size()
  /// maps worker i onto data shard i % partition.size(), so millions of
  /// workers share a bounded set of shard views. Must be 0 or >=
  /// partition.size().
  std::size_t population = 0;

  /// Per-round cohort size for round-barrier and timer mechanisms: each
  /// cycle trains a deterministic random subset of this size instead of
  /// every selected member (0 = train all, the paper's setting). Group-
  /// and buffer-triggered mechanisms reject a nonzero value — their
  /// membership semantics are the mechanism, not a sampling choice.
  std::size_t cohort_size = 0;

  // Heterogeneity and wireless substrate (§VI-A2)
  sim::ClusterModel::Config cluster;       ///< compute heterogeneity (kappa draw)
  channel::LatencyConfig latency;          ///< OMA/AirComp upload latency model
  channel::FadingChannel::Config fading;   ///< Rayleigh block-fading parameters
  channel::AirCompChannel::Config aircomp; ///< over-the-air aggregation parameters
  sim::SubstrateOptions substrate;  ///< time-varying realism generators (default static)
  double energy_cap = 10.0;         ///< \f$\hat{E}_i\f$ per worker per round (J)

  // Run control
  double time_budget = 5000.0;      ///< virtual seconds
  std::size_t max_rounds = 1000000; ///< global aggregation cap
  std::size_t eval_every = 10;      ///< evaluate every k global rounds
  std::size_t eval_samples = 1000;  ///< test subset size used for curves
  std::size_t eval_batch = 256;     ///< evaluation mini-batch (and eval shard) size
  double stop_at_accuracy = -1.0;   ///< early stop once smoothed acc >= this
  std::uint64_t seed = 42;          ///< root seed for every RNG stream of the run

  /// Concurrent local-training lanes for the execution engine: 0 = one lane
  /// per hardware thread, 1 = serial (the seed behaviour), k = exactly k
  /// lanes. Results are bit-identical for every value — each worker trains
  /// on its own RNG stream and a leased scratch model, and all aggregation
  /// reductions run in fixed member order on the simulation thread.
  std::size_t threads = 0;

  /// Cooperative GEMM: when fewer training jobs than lanes are runnable,
  /// idle lanes donate themselves to the active workers' large GEMMs
  /// (ThreadPool::cooperate via a scope the driver installs around local
  /// training). Tile-to-output mapping is fixed, so cooperation changes
  /// wall time only — results stay bit-identical for every lane count.
  bool cooperative_gemm = true;

  /// Turns on the observability layer for this run: trace spans/instants
  /// into the per-thread ring buffers (obs::enable(), process-wide and
  /// sticky) plus wall-time metric collection. Observability is read-only
  /// — digests are bit-identical with tracing on or off.
  bool trace = false;

  /// Optional cooperative cancellation token (execution-only, never part
  /// of a scenario spec or its config_hash): when non-null and set, the
  /// scheduling loop throws fl::RunCancelled at the next event boundary,
  /// unwinding the run cleanly — the Driver joins its lanes on the way
  /// out. The scenario farm's --variant-timeout watchdog and SIGINT
  /// draining set this from another thread.
  const std::atomic<bool>* cancel = nullptr;

  /// Throws std::invalid_argument on an unusable configuration.
  void validate() const;
};

/// Thrown by the scheduling loop when FLConfig::cancel trips. Callers that
/// requested the cancellation (timeout watchdogs, shutdown paths) catch
/// this type to tell an abandoned run from a genuine failure.
class RunCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Shared runtime for one mechanism run: workers, scratch models, channel
/// instances, the evaluation subset, and the common bookkeeping all seven
/// mechanisms need. Mechanisms own a Driver for the duration of `run`.
///
/// Worker state: a Worker (local model, batch buffers, RNG engine) exists
/// only while it is bound to a slot of a recycled pool; every other worker
/// is a compact descriptor (slot binding, completed-update counter, shard
/// handle). Training leases a slot, and a worker that lost its slot to
/// recycling replays its private RNG stream on the next lease, so results
/// never depend on the recycling pattern. A cohort larger than the pool
/// grows it, so a train-all run holds its whole population after the
/// first cycle.
///
/// Execution engine: the driver owns a private thread pool with
/// `training_lanes()` lanes. Mechanisms hand it batches of workers to train
/// — either as a blocking barrier (`train_workers`, synchronous rounds) or
/// split into `begin_training` / `finish_training` so independent groups
/// overlap local training between aggregations (Air-FedGA, TiFL, FedAsync).
/// The simulation (event queue, parameter server, aggregation, metrics)
/// stays on the calling thread; only `Worker::local_update` and evaluation
/// shards run on lanes.
///
/// Deadline-aware lane scheduling: each training batch carries the virtual
/// time of its group's next aggregation event. Pending jobs start in
/// ascending deadline order (earliest aggregation first), so when there are
/// more runnable groups than lanes, the lanes go to the group whose barrier
/// the simulation thread will hit next — shrinking barrier stalls instead
/// of handing lanes out FIFO. Scheduling order never changes results (see
/// FLConfig::threads).
class Driver {
 public:
  /// Validates `cfg` and builds the run state: workers with forked RNG
  /// streams, per-lane scratch models, channel instances, the evaluation
  /// subset, and the training-lane pool.
  explicit Driver(const FLConfig& cfg);

  /// Collects any jobs a mechanism left in flight (early stop), then joins
  /// the lane pool so no task outlives the state it references.
  ~Driver();

  /// The configuration this run was built from.
  [[nodiscard]] const FLConfig& config() const { return *cfg_; }

  /// Number of federated workers (FLConfig::population, defaulting to the
  /// partition size).
  [[nodiscard]] std::size_t num_workers() const { return population_; }

  /// Flat parameter count of the model architecture.
  [[nodiscard]] std::size_t model_dim() const { return model_dim_; }

  /// Resolved lane count (cfg.threads with 0 mapped to the hardware).
  [[nodiscard]] std::size_t training_lanes() const { return lanes_; }

  /// Worker `i` (bounds-checked; simulation-thread access only). Only
  /// materialized workers are addressable: the call throws
  /// std::logic_error for an unmaterialized id, which turns a would-be
  /// silent misuse (touching state that does not exist) into an immediate
  /// failure. Mechanisms only ever touch cohort members between training
  /// and release, which are materialized by construction.
  Worker& worker(std::size_t i);

  /// Const counterpart of worker(i), same materialization contract.
  [[nodiscard]] const Worker& worker(std::size_t i) const;

  /// Materialized Worker instances currently allocated: pool slots,
  /// bounded by the pool target unless a single cohort exceeds it.
  [[nodiscard]] std::size_t worker_pool_size() const { return slots_.size(); }

  /// Slot count the pool recycles down to (max of twice the lane budget,
  /// twice the configured cohort size, and a small floor).
  [[nodiscard]] std::size_t worker_pool_target() const { return pool_target_; }

  /// True when worker `i` is currently bound to a pool slot.
  [[nodiscard]] bool worker_materialized(std::size_t i) const;

  /// Returns cohort members' pool slots to the recycle list after an
  /// aggregation consumed their local models. Released state stays bound —
  /// re-selecting the same worker before its slot is recycled reuses it
  /// warm, with no RNG replay.
  void release_workers(const std::vector<std::size_t>& members);

  /// The evaluation scratch model (simulation-thread access only).
  ml::Model& scratch() { return scratch_; }

  /// The over-the-air aggregation channel of this run.
  channel::AirCompChannel& aircomp() { return aircomp_; }

  /// Label-distribution statistics of the partition (EMD inputs).
  [[nodiscard]] const data::DataStats& stats() const { return stats_; }

  /// Per-worker compute-heterogeneity model (local training times).
  [[nodiscard]] const sim::ClusterModel& cluster() const { return cluster_; }

  /// The run's physical substrate: per-worker channel gains, upload
  /// latency, availability, and remaining energy, queried at virtual-time
  /// points (the static generator reproduces the classic frozen models).
  [[nodiscard]] sim::Substrate& substrate() { return *substrate_; }

  /// Const counterpart of substrate() (read-only queries).
  [[nodiscard]] const sim::Substrate& substrate() const { return *substrate_; }

  /// Deadline value for untagged batches: they run after every tagged one.
  static constexpr double kNoDeadline = util::ThreadPool::kNoDeadline;

  /// Starts local training (Eq. 4) for every worker in `members` from a
  /// snapshot of `global`, one pool task per worker. Returns immediately;
  /// the models become visible only after `finish_training`. A worker may
  /// not be enqueued again before its previous job was collected.
  ///
  /// `deadline` is the virtual time of the batch's next aggregation event
  /// (sync mechanisms: the round barrier; async mechanisms: the group's
  /// upload-complete event). Pending jobs start earliest-deadline-first;
  /// kNoDeadline restores FIFO order among untagged batches.
  void begin_training(const std::vector<std::size_t>& members, std::span<const float> global,
                      double deadline = kNoDeadline);

  /// Blocks until every in-flight job for `members` completed, collecting
  /// futures in member order (fixed-order barrier). Rethrows task errors.
  /// Wall time spent blocked here is accumulated into engine_stats().
  void finish_training(const std::vector<std::size_t>& members);

  /// Barrier convenience: begin + finish (synchronous-round mechanisms).
  void train_workers(const std::vector<std::size_t>& members, std::span<const float> global,
                     double deadline = kNoDeadline);

  /// Deterministic initial global model (same seed => same start for every
  /// mechanism, so curves are comparable).
  [[nodiscard]] std::vector<float> initial_model();

  /// Test loss/accuracy of a flat parameter vector on the eval subset.
  ///
  /// With more than one lane and more than one eval batch, the batches are
  /// sharded across lanes (the simulation thread itself works through the
  /// shard list, so progress never waits on lanes busy with training) and
  /// the per-batch partial sums are reduced in fixed batch order. Shard
  /// boundaries are the serial loop's batch boundaries and never depend on
  /// the lane count, so the result is bit-identical to the serial path for
  /// every FLConfig::threads.
  ml::EvalResult evaluate(std::span<const float> model);

  /// Wall-clock engine instrumentation accumulated so far (barrier stalls,
  /// evaluation time, cooperative-GEMM activity merged from the lane
  /// pool's counters). Mechanisms copy this into their Metrics on return.
  [[nodiscard]] EngineStats engine_stats() const;

  /// This run's metric registry (counters/histograms the scheduling loop
  /// and mechanisms record into). One per Driver so snapshots attribute to
  /// a single mechanism execution.
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// Folds the lane pool's counters into the registry and returns a
  /// point-in-time copy of every metric — what the scheduling loop attaches
  /// to its Metrics at the end of a run.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();

  /// Per-round power control (Alg. 2) for a group about to aggregate:
  /// gathers the members' gains this round and model-norm bound W_t, and
  /// returns (sigma*, eta*, C).
  core::PowerControlResult power_for_group(const std::vector<std::size_t>& members,
                                           std::size_t round);

  /// Runs Eq. (9)-(10) over the air for `members` and returns the new
  /// global model; accumulates per-round energy into `energy_joules`.
  /// Fetches the members' gains once (Substrate::member_gains), for power
  /// control and the MAC alike.
  std::vector<float> aircomp_aggregate(const std::vector<std::size_t>& members,
                                       std::span<const float> w_prev, std::size_t round,
                                       double& energy_joules);

  /// Error-free OMA aggregation (Eq. 8) over `members`. Charges each
  /// member the substrate's flat per-upload OMA energy (0 when the energy
  /// generator is off).
  std::vector<float> oma_aggregate(const std::vector<std::size_t>& members,
                                   std::span<const float> w_prev);

  /// Helper for the shared early-stop rule: true once the mean of the last
  /// 3 evaluation accuracies reaches cfg.stop_at_accuracy (if enabled).
  [[nodiscard]] bool should_stop(const Metrics& metrics) const;

  /// Evaluates and records a metric point if `round` falls on the eval
  /// cadence (every cfg.eval_every rounds, plus round 1).
  void maybe_record(Metrics& metrics, std::size_t round, double time, double energy,
                    double staleness, std::span<const float> model);

 private:
  class ScratchLease;

  /// Substrate::member_gains for `members` in any order, repeats allowed:
  /// out[j] is the gain of members[j] at `round`.
  void member_gains(const std::vector<std::size_t>& members, std::size_t round,
                    std::vector<double>& out);
  core::PowerControlResult power_for_group(const std::vector<std::size_t>& members,
                                           std::span<const double> gains);

  std::unique_ptr<ml::Model> acquire_scratch();
  void release_scratch(std::unique_ptr<ml::Model> m);
  ml::EvalResult evaluate_sharded(std::span<const float> model, std::size_t n,
                                  std::size_t n_batches);
  util::Rng worker_rng(std::size_t i) const;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// One pool slot: the Worker bound to it, its owner, whether a cohort
  /// currently holds it, and the owner's in-flight training job. The
  /// Worker lives behind a unique_ptr so its address stays stable while
  /// the slot vector grows (in-flight jobs reference it, and async
  /// mechanisms hold leases across later cohort starts).
  struct Slot {
    std::unique_ptr<Worker> worker;
    std::size_t owner = kNoSlot;
    bool leased = true;
    std::future<void> pending;
  };

  Slot& lease_slot(std::size_t i);

  const FLConfig* cfg_;
  std::size_t population_ = 0;
  data::ShardIndex shards_;          ///< shared immutable views; workers hold spans
  ml::Model scratch_;                ///< evaluation scratch (simulation thread only)
  std::size_t model_dim_ = 0;
  data::DataStats stats_;
  sim::ClusterModel cluster_;
  std::unique_ptr<sim::Substrate> substrate_;
  channel::AirCompChannel aircomp_;
  ml::Tensor eval_xs_;
  std::vector<int> eval_ys_;

  // Worker pool. Workers not bound to a slot exist only as descriptors: a
  // bound_[] slot reference (kNoSlot when cold), a completed-update counter
  // for RNG replay, and the shared shard views above.
  std::size_t pool_target_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::size_t> bound_;       ///< [worker] slot or kNoSlot
  std::vector<std::size_t> released_;    ///< FIFO of recyclable (bound, unleased) slots
  std::vector<std::size_t> cycles_;      ///< [worker] completed local updates (RNG replay)

  // Execution engine state. One pre-allocated scratch model per lane,
  // leased to training tasks.
  std::size_t lanes_ = 1;
  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<ml::Model>> scratch_free_;
  EngineStats engine_stats_;
  obs::Registry registry_;
  obs::Counter* warm_hits_ = nullptr;     ///< cached &registry_["pool.warm_hits"]
  obs::Counter* cold_replays_ = nullptr;  ///< cached &registry_["pool.cold_replays"]
  obs::Histogram* energy_hist_ = nullptr; ///< "substrate.energy_j" (AirComp Eq. 7)
  obs::Histogram* csi_hist_ = nullptr;    ///< "substrate.csi_err" (h / h_hat factors)

  // member_gains scratch (simulation thread only).
  std::vector<std::size_t> gain_ids_;  ///< sorted distinct members
  std::vector<double> gain_vals_;      ///< their gains
  std::vector<double> member_gains_;   ///< gains in the caller's member order
  // Destroyed first (declared last): joining the pool drains outstanding
  // tasks before any state they reference goes away.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace airfedga::fl
