#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/data_stats.hpp"
#include "fl/driver.hpp"
#include "fl/metrics.hpp"
#include "fl/server.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace airfedga::fl {

class SchedulingLoop;

/// When (and for whom) a mechanism's aggregation event fires. Every
/// mechanism of Table I — and every variant from the related work — falls
/// into one of these four families, which is what lets a single scheduling
/// loop replace the six hand-rolled per-mechanism loops.
enum class TriggerKind {
  /// One synchronous cohort; the round barrier is scheduled up front and
  /// the time budget is checked *before* a round starts (FedAvg,
  /// Air-FedAvg, Dynamic).
  kRoundBarrier,
  /// Mutually asynchronous cohorts, each aggregating on its own timer:
  /// cycle start + slowest member + upload (TiFL tiers, FedAsync's
  /// singleton "groups").
  kCohortTimer,
  /// Cohort members report READY individually; the cohort aggregates one
  /// upload after the last member arrives (Air-FedGA's intra-group
  /// alignment, Alg. 1 lines 17-23).
  kGroupReady,
  /// READY reports feed a server-side buffer; the policy decides per
  /// arrival whether to flush the buffer as one aggregation (semi-async,
  /// Kou et al.).
  kReadyBuffer,
};

/// A federated mechanism as a policy object. The event-driven engine
/// (SchedulingLoop) owns the run: it seeds the queue, advances virtual
/// time, tags every training batch with its aggregation deadline, collects
/// in-flight jobs at barriers, records metrics, and applies the shared
/// stop rules. Subclasses only answer the three policy questions:
///
///  1. *Selection* — `check` / `make_cohorts` / `select`: which workers
///     form which cohorts, and who joins a cohort's next cycle.
///  2. *Aggregation trigger* — `trigger` / `upload_seconds` /
///     `aggregate_time` / `should_flush`: when a cohort's aggregation
///     event fires.
///  3. *Staleness weighting* — `aggregate` / `reweight`: how a cohort's
///     models fold into the global model, and how staleness damps the
///     update (identity, FedAsync damping, bounded-staleness blending).
///
/// The hooks are public on purpose: they are the mechanism API, and the
/// unit tests exercise them in isolation against a prepared loop.
class Mechanism {
 public:
  virtual ~Mechanism() = default;  ///< mechanisms are held by base pointer

  /// Display name used in tables, curves, and CSV stems.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Executes one full federated training run under `cfg` on the unified
  /// scheduling loop and returns its recorded metric series (with engine
  /// stats attached). Non-virtual: the loop is shared, only policy varies.
  Metrics run(const FLConfig& cfg);

  // -- selection hooks ------------------------------------------------
  /// Validates mechanism knobs against `cfg`; throws std::invalid_argument
  /// before any run state is built. Default: accept.
  virtual void check(const FLConfig& cfg) const;

  /// Partitions the workers into the mechanism's cohorts (one cohort =
  /// synchronous round barrier; tiers; singletons; Alg. 3 groups). Called
  /// once per run, after the loop computed local_times().
  virtual data::WorkerGroups make_cohorts(SchedulingLoop& loop) = 0;

  /// Members of `cohort` participating in the cycle that aggregates as
  /// global round `round`. Default: the full cohort. Returning an empty
  /// vector skips the cycle (kRoundBarrier advances to the next round
  /// without consuming virtual time, mirroring Dynamic's defensive skip).
  virtual std::vector<std::size_t> select(SchedulingLoop& loop, std::size_t cohort,
                                          std::size_t round);

  // -- aggregation-trigger hooks --------------------------------------
  /// Which trigger family drives this mechanism's aggregation events.
  [[nodiscard]] virtual TriggerKind trigger() const = 0;

  /// Upload duration for one aggregation over `members` (serialized OMA
  /// transfers or one concurrent AirComp transmission), queried from the
  /// substrate at the virtual time `now` the upload starts.
  [[nodiscard]] virtual double upload_seconds(const SchedulingLoop& loop,
                                              const std::vector<std::size_t>& members,
                                              double now) const = 0;

  /// Virtual time at which a cycle of `cohort` starting at `start` will
  /// aggregate; doubles as the deadline tag handed to the lane scheduler
  /// with the cycle's training batch. Default: start + (compute + upload)
  /// with compute = the slowest member's local time. Override only to
  /// reproduce a different floating-point association (FedAsync).
  [[nodiscard]] virtual double aggregate_time(const SchedulingLoop& loop, std::size_t cohort,
                                              const std::vector<std::size_t>& members,
                                              double start) const;

  /// kReadyBuffer only: called when a READY arrives with the buffer
  /// contents (arrival order); true flushes the buffer as one aggregation.
  /// Default: flush on every upload (degenerates to FedAsync timing).
  virtual bool should_flush(SchedulingLoop& loop, const std::vector<std::size_t>& buffered);

  // -- staleness-weighting hooks --------------------------------------
  /// Folds the members' trained models into a candidate global model for
  /// round `round` (their in-flight jobs are already collected). AirComp
  /// mechanisms accumulate transmit energy via loop.energy_joules().
  virtual std::vector<float> aggregate(SchedulingLoop& loop,
                                       const std::vector<std::size_t>& members,
                                       std::span<const float> w_prev, std::size_t round) = 0;

  /// Staleness weighting applied in place to the candidate `w_next`
  /// against the still-installed `w_prev` (tau = cohort staleness at this
  /// aggregation). Default: identity (synchronous mechanisms and plain
  /// Air-FedGA).
  virtual void reweight(const SchedulingLoop& loop, std::span<const float> w_prev,
                        std::vector<float>& w_next, double tau) const;
};

/// The unified event-driven engine: one loop over sim::EventQueue drives
/// every mechanism. Construction prepares the run state a policy's hooks
/// can query (local times, cohorts, parameter server); run() seeds the
/// queue per the policy's TriggerKind and drains it.
///
/// Determinism contract: the loop replays each mechanism's original
/// schedule()/pop() sequence exactly — event seq numbers break time ties,
/// so insertion order is part of the observable behaviour — and every
/// floating-point reduction it performs is association-identical to the
/// pre-refactor per-mechanism loops. Metrics::digest() is therefore
/// bit-identical to the seed implementation for every FLConfig::threads.
class SchedulingLoop {
 public:
  /// Prepares the run state: local times, the policy's cohorts (validated
  /// non-empty), the cohort index, and the parameter server holding w_0.
  /// A nonzero FLConfig::cohort_size is rejected for group- and
  /// buffer-triggered mechanisms (their membership is the mechanism, not a
  /// sampling knob).
  SchedulingLoop(Driver& driver, Mechanism& policy);

  /// Seeds the event queue for the policy's trigger kind, then drains it:
  /// READY events feed cohort alignment or the flush buffer, aggregation
  /// events run collect -> aggregate -> reweight -> commit -> record, and
  /// the loop stops at the time budget (peeked, so the clock never passes
  /// it), the round cap, or the shared early-stop rule.
  Metrics run();

  // -- state exposed to policy hooks ----------------------------------
  [[nodiscard]] Driver& driver() const { return driver_; }
  [[nodiscard]] const FLConfig& config() const { return driver_.config(); }
  /// Per-worker local training durations (sim::ClusterModel, fixed per run).
  [[nodiscard]] const std::vector<double>& local_times() const { return local_times_; }
  /// The policy's cohorts as returned by make_cohorts.
  [[nodiscard]] const data::WorkerGroups& cohorts() const { return cohorts_; }
  /// Cohort index of worker `i`.
  [[nodiscard]] std::size_t cohort_of(std::size_t worker) const { return cohort_of_.at(worker); }
  /// Parameter-server state (global model, round counter, staleness).
  [[nodiscard]] ParameterServer& server() { return *server_; }
  [[nodiscard]] const ParameterServer& server() const { return *server_; }
  /// Accumulated transmit energy (J); AirComp aggregation adds into this.
  [[nodiscard]] double& energy_joules() { return energy_; }

 private:
  static constexpr int kEvReady = 0;      ///< a worker finished local training
  static constexpr int kEvAggregate = 1;  ///< an aggregation upload completes
  static constexpr int kEvSubstrate = 2;  ///< a parked cohort wakes (actor = cohort)

  void seed_queue();
  // Deterministic per-(round, cohort) subsampling down to
  // FLConfig::cohort_size; identity when the knob is 0 or the selection is
  // already small enough. The draw's RNG stream depends only on (seed,
  // round, cohort), never on engine state, so it is thread- and
  // backend-invariant.
  std::vector<std::size_t> sample_cohort(std::vector<std::size_t> members, std::size_t round,
                                         std::size_t cohort);
  void start_sync_cycle();
  void start_timer_cycle(std::size_t cohort, double start);
  void start_ready_cycle(std::size_t cohort, double start);
  void start_buffer_cycle(const std::vector<std::size_t>& members, double start);
  // Starts `cohort`'s next cycle at `time` per the trigger kind;
  // kReadyBuffer restarts `workers` (a flushed buffer or a parked worker).
  void restart_cycle(std::size_t cohort, const std::vector<std::size_t>& workers, double time);
  void on_ready(const sim::Event& ev);
  bool on_aggregate(const sim::Event& ev);  ///< false = stop the run
  void on_substrate(const sim::Event& ev);
  // Parks `cohort`, whose cycle start at virtual `time` found nobody
  // selectable, and schedules its wake-up at the first availability
  // transition after `time` that brings one of its workers online.
  void park(std::size_t cohort, double time);
  // Members of `candidates` that are online and not energy-depleted at
  // virtual `time`; returns `candidates` untouched on a static substrate.
  std::vector<std::size_t> filter_selectable(std::vector<std::size_t> candidates,
                                             double time) const;

  Driver& driver_;
  Mechanism& policy_;
  TriggerKind trigger_;
  Metrics metrics_;
  sim::EventQueue queue_;
  std::vector<double> local_times_;
  data::WorkerGroups cohorts_;
  std::vector<std::size_t> cohort_of_;
  std::optional<ParameterServer> server_;
  /// Members training toward each cohort's pending aggregation event.
  std::vector<std::vector<std::size_t>> active_;
  /// kRoundBarrier: synchronous round counter (selection skips advance it
  /// past the server's committed-round count, like the original loops).
  std::size_t cycle_ = 0;
  /// kReadyBuffer: workers whose uploads await a flush, in arrival order.
  std::vector<std::size_t> buffer_;
  /// kReadyBuffer: flushed buffers by in-flight aggregation event actor.
  std::vector<std::vector<std::size_t>> flights_;
  double energy_ = 0.0;
  /// The run's substrate and whether it varies over time. With a static
  /// substrate every realism branch below is dead and the loop replays the
  /// classic event sequence exactly.
  sim::Substrate* substrate_ = nullptr;
  bool realism_ = false;
  /// Per-worker availability cursor: the latest point of the worker's
  /// transition chain next_transition(i, 0), next_transition(i, that), ...
  /// that park() has replayed (negative: the worker never transitions).
  std::vector<double> toggle_;
  /// sample_cohort's reused buffers: the drawn positions and the sampler's
  /// scratch, so no round allocates a population-sized array for its draw.
  std::vector<std::size_t> cohort_pos_;
  util::SampleScratch cohort_scratch_;
  /// Observability instruments, resolved once from the driver's registry
  /// (updates are then lock-free). Both record *virtual*-time quantities,
  /// so their contents are deterministic for a given scenario.
  obs::Histogram* pending_hist_ = nullptr;  ///< eventq.pending depth at each pop
  obs::Histogram* latency_hist_ = nullptr;  ///< per-TriggerKind aggregation latency
  obs::Counter* dropouts_ = nullptr;        ///< substrate.dropouts (mid-round losses)
};

}  // namespace airfedga::fl
