#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "channel/fading.hpp"
#include "channel/latency.hpp"

namespace airfedga::sim {

/// Configuration of the time-varying substrate layer: which realism
/// generators are active and their knobs. The three generators compose
/// freely (a run can have churn *and* energy budgets *and* CSI error); with
/// none enabled the substrate is the static adapter over the classic
/// fading/latency models and reproduces pre-substrate digests bit for bit.
struct SubstrateOptions {
  /// Diurnal availability generator: each worker follows a seeded on/off
  /// square wave (period `churn_period`, on for `churn_on_fraction` of it,
  /// random phase). Workers that go offline mid-round drop out of the
  /// aggregation; cohorts emptied at cycle start park until one of their
  /// workers comes back online instead of burning rounds.
  bool churn = false;
  double churn_period = 400.0;     ///< seconds per on/off cycle
  double churn_on_fraction = 0.7;  ///< fraction of the period a worker is on

  /// Energy-budget generator: each worker starts with `energy_budget`
  /// joules for the whole run. AirComp uploads charge the real Eq. (7)
  /// transmit energy; OMA uploads charge the flat `energy_oma_upload`.
  /// A depleted worker stops participating (extends the fig09 energy axis
  /// from accounting to an actual constraint).
  bool energy = false;
  double energy_budget = 50.0;     ///< J per worker for the whole run
  double energy_oma_upload = 1.0;  ///< flat J per OMA upload

  /// Imperfect-CSI generator: the parameter server's channel estimate is
  /// h_hat = h * (1 + eps), eps ~ N(0, csi_error_std) per (worker, round).
  /// Power control and pre-equalization use h_hat; the over-the-air
  /// superposition then carries the residual factor h / h_hat per worker
  /// (the multiplicative MAC mismatch of imperfect CSI).
  bool csi_error = false;
  double csi_error_std = 0.1;  ///< relative estimate-error std deviation

  /// True when any generator changes run-time scheduling state
  /// (availability or energy gating). CSI error alone leaves the event
  /// schedule untouched — it only perturbs the AirComp arithmetic.
  [[nodiscard]] bool time_varying() const { return churn || energy; }

  /// True when any generator is enabled at all.
  [[nodiscard]] bool any() const { return churn || energy || csi_error; }

  /// Throws std::invalid_argument naming the offending knob.
  void validate() const;
};

/// Parses a substrate kind string — "static" or a '+'-joined combination
/// of "churn", "energy", "csi_error" (e.g. "churn+energy") — into the
/// generator flags of `opts` (knob values are left untouched). Throws
/// std::invalid_argument on an unknown or duplicate token.
void set_substrate_kind(SubstrateOptions& opts, const std::string& kind);

/// Canonical kind string of the enabled generators ("static" when none);
/// the inverse of set_substrate_kind.
[[nodiscard]] std::string substrate_kind(const SubstrateOptions& opts);

/// Per-worker physical state of the run — channel gains, upload latency,
/// availability, remaining energy — queried at virtual-time points instead
/// of baked into the federated config at construction.
///
/// Contract for generator implementations:
///  - Every query is answered on the simulation thread, in event order;
///    queries with the same arguments between two mutations (charge) return
///    identical values. gains()/csi_scales() are pure functions of
///    (substrate seeds, round); available()/next_transition() are pure
///    functions of (substrate seeds, time). State therefore never depends
///    on lane count.
///  - Determinism invariant #8 (docs/ARCHITECTURE.md): substrate queries
///    consume only substrate-owned RNG streams — the fading stream and the
///    churn/CSI streams forked from the run seed with substrate-reserved
///    tags. No query may touch the weight, partition, or worker streams.
class Substrate {
 public:
  virtual ~Substrate() = default;

  [[nodiscard]] virtual std::size_t num_workers() const = 0;

  // -- channel state ----------------------------------------------------
  /// Per-worker channel gains as the parameter server estimates them for
  /// `round` (h_hat); what power control and pre-equalization use. Cached
  /// per round; the reference is valid until the next gains() call.
  virtual const std::vector<double>& gains(std::size_t round) = 0;

  /// The gains of `members` alone — strictly increasing worker ids — for
  /// `round`, into `out` (resized to members.size()). Contract:
  ///  - out[j] is bitwise gains(round)[members[j]]: the same values from
  ///    the same fading-stream positions (invariant #8), so a caller may
  ///    use either query;
  ///  - gains(round) returns the same vector before and after the call;
  ///  - cost follows the members, not N, wherever the stream allows: a
  ///    member-only walk of the fading stream, which leaves the gains()
  ///    cache alone, or an index into the round's cache when gains()
  ///    already filled it.
  /// This default gathers from gains(round), and so counts as a gains()
  /// call for reference validity. Throws std::invalid_argument on unsorted
  /// or repeated ids and std::out_of_range on an id >= N.
  virtual void member_gains(std::span<const std::size_t> members, std::size_t round,
                            std::vector<double>& out);

  /// Per-worker multiplicative MAC factors h / h_hat for `round`; an empty
  /// span means perfect CSI (the AirComp channel then skips the mismatch
  /// term entirely). Valid until the next csi_scales() call.
  virtual std::span<const double> csi_scales(std::size_t round) = 0;

  // -- upload latency ---------------------------------------------------
  /// AirComp upload duration (Eq. 33) for a q-parameter model, queried at
  /// the event's virtual `time`.
  [[nodiscard]] virtual double aircomp_upload_seconds(std::size_t q, double time) const = 0;

  /// Serialized OMA upload duration for `uploaders` workers, queried at
  /// the event's virtual `time`.
  [[nodiscard]] virtual double oma_upload_seconds(std::size_t q, std::size_t uploaders,
                                                  double time) const = 0;

  // -- availability -----------------------------------------------------
  /// Whether `worker` is online at virtual `time`.
  [[nodiscard]] virtual bool available(std::size_t worker, double time) const = 0;

  /// Next availability transition of `worker` strictly after `time`, or a
  /// negative value when its availability never changes (no churn).
  [[nodiscard]] virtual double next_transition(std::size_t worker, double time) const = 0;

  // -- energy -----------------------------------------------------------
  /// Whether `worker` has exhausted its energy budget.
  [[nodiscard]] virtual bool depleted(std::size_t worker) const = 0;

  /// Deducts `joules` from the worker's budget (no-op without the energy
  /// generator). Called on the simulation thread at aggregation events.
  virtual void charge(std::size_t worker, double joules) = 0;

  /// Remaining budget of `worker` in joules (+inf without the generator).
  [[nodiscard]] virtual double remaining_joules(std::size_t worker) const = 0;

  /// Flat per-upload OMA charge (0 without the energy generator).
  [[nodiscard]] virtual double oma_upload_joules() const = 0;

  /// Number of workers that have crossed into depletion so far.
  [[nodiscard]] virtual std::size_t depleted_count() const = 0;

  // -- scheduling-loop guards -------------------------------------------
  /// True when the scheduling loop must filter membership and park cohorts
  /// that find nobody selectable until availability brings one back (any
  /// time-varying generator active). The static substrate returns false,
  /// keeping the loop on its classic path.
  [[nodiscard]] virtual bool time_varying() const = 0;

  /// Online and not depleted: may join a cohort cycle starting at `time`.
  [[nodiscard]] bool selectable(std::size_t worker, double time) const {
    return available(worker, time) && !depleted(worker);
  }
};

/// The static generator: an adapter over the classic per-run
/// FadingChannel + LatencyModel pair. Always available, infinite energy,
/// perfect CSI; gains(round) caches the latest round's Rayleigh draw
/// exactly like the pre-substrate driver did, so every digest is
/// bit-identical to pre-refactor goldens.
class StaticSubstrate : public Substrate {
 public:
  StaticSubstrate(std::size_t num_workers, const channel::FadingChannel::Config& fading,
                  const channel::LatencyConfig& latency);

  [[nodiscard]] std::size_t num_workers() const override { return n_; }
  const std::vector<double>& gains(std::size_t round) override { return true_gains(round); }
  void member_gains(std::span<const std::size_t> members, std::size_t round,
                    std::vector<double>& out) override;
  std::span<const double> csi_scales(std::size_t /*round*/) override { return {}; }
  [[nodiscard]] double aircomp_upload_seconds(std::size_t q, double time) const override;
  [[nodiscard]] double oma_upload_seconds(std::size_t q, std::size_t uploaders,
                                          double time) const override;
  [[nodiscard]] bool available(std::size_t /*worker*/, double /*time*/) const override {
    return true;
  }
  [[nodiscard]] double next_transition(std::size_t /*worker*/,
                                       double /*time*/) const override {
    return -1.0;
  }
  [[nodiscard]] bool depleted(std::size_t /*worker*/) const override { return false; }
  void charge(std::size_t /*worker*/, double /*joules*/) override {}
  [[nodiscard]] double remaining_joules(std::size_t worker) const override;
  [[nodiscard]] double oma_upload_joules() const override { return 0.0; }
  [[nodiscard]] std::size_t depleted_count() const override { return 0; }
  [[nodiscard]] bool time_varying() const override { return false; }

  /// The inner fading model (tests and planning-time inspection).
  [[nodiscard]] const channel::FadingChannel& fading_model() const { return fading_; }

 protected:
  /// The true per-round gains h with the classic latest-round cache;
  /// realism generators layer estimate noise on top of this.
  const std::vector<double>& true_gains(std::size_t round);

 private:
  std::size_t n_;
  channel::FadingChannel fading_;
  channel::LatencyModel latency_;
  std::size_t gains_round_ = static_cast<std::size_t>(-1);
  std::vector<double> gains_cache_;
};

/// The realism generators — churn, energy, csi_error — layered over the
/// static adapter, each independently gated by its SubstrateOptions flag.
/// All randomness comes from two substrate-owned streams forked from the
/// run seed (churn phases; per-round CSI error), so every trajectory is a
/// deterministic function of (scenario, seed) regardless of lane count.
class RealismSubstrate : public StaticSubstrate {
 public:
  RealismSubstrate(std::size_t num_workers, const channel::FadingChannel::Config& fading,
                   const channel::LatencyConfig& latency, const SubstrateOptions& opts,
                   std::uint64_t run_seed);

  const std::vector<double>& gains(std::size_t round) override;
  void member_gains(std::span<const std::size_t> members, std::size_t round,
                    std::vector<double>& out) override;
  std::span<const double> csi_scales(std::size_t round) override;
  [[nodiscard]] bool available(std::size_t worker, double time) const override;
  [[nodiscard]] double next_transition(std::size_t worker, double time) const override;
  [[nodiscard]] bool depleted(std::size_t worker) const override;
  void charge(std::size_t worker, double joules) override;
  [[nodiscard]] double remaining_joules(std::size_t worker) const override;
  [[nodiscard]] double oma_upload_joules() const override;
  [[nodiscard]] std::size_t depleted_count() const override { return depleted_count_; }
  [[nodiscard]] bool time_varying() const override { return opts_.time_varying(); }

  [[nodiscard]] const SubstrateOptions& options() const { return opts_; }

 private:
  void ensure_csi(std::size_t round);

  SubstrateOptions opts_;
  std::uint64_t csi_seed_ = 0;
  std::vector<double> phase_;      ///< [worker] churn wave phase offset (s)
  std::vector<double> remaining_;  ///< [worker] energy budget left (J)
  std::size_t depleted_count_ = 0;
  // Per-round CSI cache, refreshed together: the reported estimates
  // h_hat = h * (1 + eps) and the MAC factors h / h_hat.
  std::size_t csi_round_ = static_cast<std::size_t>(-1);
  std::vector<double> reported_;
  std::vector<double> scales_;
};

/// Builds the substrate for a run: the static adapter when no generator is
/// enabled, the realism substrate otherwise. `run_seed` is the run's root
/// seed; substrate streams fork from it with reserved tags (invariant #8).
std::unique_ptr<Substrate> make_substrate(std::size_t num_workers,
                                          const channel::FadingChannel::Config& fading,
                                          const channel::LatencyConfig& latency,
                                          const SubstrateOptions& opts, std::uint64_t run_seed);

}  // namespace airfedga::sim
