#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace airfedga::fl {

/// One evaluation snapshot of a training run, in *virtual* (simulated)
/// seconds — the clock the paper's x-axes use.
struct MetricPoint {
  double time = 0.0;        ///< virtual seconds since training start
  std::size_t round = 0;    ///< global aggregation count so far
  double loss = 0.0;        ///< test loss of the global model
  double accuracy = 0.0;    ///< test accuracy of the global model
  double energy = 0.0;      ///< cumulative aggregation energy (J, Eq. 7)
  double staleness = 0.0;   ///< tau_t of the round that produced this model
};

/// Wall-clock instrumentation of the execution engine for one mechanism
/// run, filled in by the Driver. These are *real* seconds (not virtual
/// simulation time) and therefore vary run to run; `Metrics::bit_identical`
/// deliberately ignores them — only simulated results must be reproducible.
struct EngineStats {
  double barrier_seconds = 0.0;  ///< wall time the simulation thread spent blocked in training
                                 ///< barriers
  double eval_seconds = 0.0;     ///< wall time spent inside Driver::evaluate
  std::size_t barriers = 0;      ///< number of finish_training barriers
  std::size_t evals = 0;         ///< number of evaluate calls
  /// Always 0: no kernel recruits idle lanes (util::parallel_for is the
  /// only intra-op split). Kept because perfbench/harness.cpp reads them.
  std::size_t coop_gemms = 0;
  std::size_t coop_helper_tiles = 0;  ///< always 0, like coop_gemms
};

/// Time series recorded by every mechanism run; provides the queries the
/// paper's evaluation section needs (time/energy to reach an accuracy,
/// final metrics, average round duration).
class Metrics {
 public:
  void record(MetricPoint p);

  [[nodiscard]] const std::vector<MetricPoint>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// First virtual time at which the `window`-point moving average of
  /// accuracy reaches `target` ("attains a stable X%" in §VI-B1).
  /// Returns a negative value when the target is never reached.
  [[nodiscard]] double time_to_accuracy(double target, std::size_t window = 3) const;

  /// Cumulative aggregation energy when the accuracy target is first
  /// reached (Fig. 9). Negative when never reached.
  [[nodiscard]] double energy_to_accuracy(double target, std::size_t window = 3) const;

  [[nodiscard]] double final_accuracy() const;
  [[nodiscard]] double final_loss() const;
  [[nodiscard]] double total_time() const;
  [[nodiscard]] double total_energy() const;
  [[nodiscard]] std::size_t total_rounds() const;

  /// Total transmit energy as the run's obs registry recorded it: the sum
  /// of the "substrate.energy_j" histogram (one sample per Eq. 7 per-worker
  /// transmit energy, accumulated on the simulation thread in event order,
  /// so it equals total_energy() bit for bit). Falls back to the metric
  /// series when the snapshot lacks the instrument (hand-built Metrics).
  [[nodiscard]] double obs_total_energy() const;

  /// Mean virtual time between consecutive recorded rounds (Fig. 10 left).
  [[nodiscard]] double average_round_time() const;

  /// Maximum staleness observed across the run.
  [[nodiscard]] double max_staleness() const;

  void write_csv(const std::string& path) const;

  /// The exact bytes write_csv would produce, as a string — the scenario
  /// farm stores this in its durable per-variant stash so a resumed
  /// session re-emits identical points files without re-running.
  [[nodiscard]] std::string csv_string() const;

  /// True iff every recorded point and the final model match `other`
  /// bit-for-bit (no tolerance). This is the execution engine's determinism
  /// contract — used by the thread-sweep bench and the determinism tests.
  [[nodiscard]] bool bit_identical(const Metrics& other) const;

  /// 16-hex-char FNV-1a 64 digest over the bit patterns of every recorded
  /// point and the final model — a compact fingerprint of everything
  /// `bit_identical` compares, so two runs digest equal iff they are
  /// bit-identical. Written into the scenario runner's JSONL/CSV results
  /// and printed by the figure benches for cross-binary comparison.
  [[nodiscard]] std::string digest() const;

  /// The trained global model w_T (flat parameter vector); set by every
  /// mechanism before returning (Alg. 1 line 32 "return global model").
  [[nodiscard]] const std::vector<float>& final_model() const { return final_model_; }
  void set_final_model(std::vector<float> model) { final_model_ = std::move(model); }

  /// Execution-engine wall-clock stats of the run that produced this
  /// series (excluded from `bit_identical`; see EngineStats).
  [[nodiscard]] const EngineStats& engine_stats() const { return engine_stats_; }
  void set_engine_stats(const EngineStats& stats) { engine_stats_ = stats; }

  /// Observability counters/histograms of the run (docs/OBSERVABILITY.md).
  /// Like EngineStats, excluded from `bit_identical`/`digest`: some values
  /// are wall-clock- or lane-count-dependent.
  [[nodiscard]] const obs::MetricsSnapshot& obs_snapshot() const { return obs_snapshot_; }
  void set_obs_snapshot(obs::MetricsSnapshot snap) { obs_snapshot_ = std::move(snap); }

 private:
  std::vector<MetricPoint> points_;
  std::vector<float> final_model_;
  EngineStats engine_stats_;
  obs::MetricsSnapshot obs_snapshot_;
};

}  // namespace airfedga::fl
