#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/aircomp.hpp"
#include "channel/fading.hpp"
#include "channel/latency.hpp"
#include "data/dataset.hpp"
#include "fl/driver.hpp"
#include "fl/mechanisms.hpp"
#include "scenario/json.hpp"
#include "sim/cluster.hpp"

namespace airfedga::scenario {

/// Which synthetic workload to generate (data::make_* presets).
struct DatasetSpec {
  std::string kind = "mnist_like";  ///< mnist_like | mnist_image_like | cifar10_like |
                                    ///< imagenet100_like
  std::size_t train_samples = 10000;
  std::size_t test_samples = 2000;
  std::uint64_t seed = 1;  ///< generator seed (independent of the run seed)
};

/// Which model-zoo architecture to train. Fields irrelevant to a kind are
/// ignored by build and omitted from to_json.
struct ModelSpec {
  std::string kind = "mlp";   ///< mlp | mlp1 | softmax | cnn_mnist | cnn_cifar | vgg_style
  std::size_t input_dim = 784;   ///< mlp / mlp1 / softmax
  std::size_t num_classes = 10;  ///< mlp / mlp1 / softmax / vgg_style
  std::size_t hidden = 64;       ///< mlp / mlp1
  double width_scale = 1.0;      ///< cnn_mnist / cnn_cifar / vgg_style
  std::size_t image = 28;        ///< cnn_mnist / cnn_cifar / vgg_style
};

/// How the training set is split across workers.
struct PartitionSpec {
  std::string kind = "label_skew";  ///< label_skew | iid | dirichlet
  std::size_t workers = 100;
  double alpha = 0.3;  ///< dirichlet concentration (dirichlet only)
  /// Number of distinct data shards. 0 (default) = one shard per worker,
  /// the legacy layout. A nonzero value partitions the training set into
  /// this many shards and maps worker i onto shard i % shards, so
  /// `workers` becomes a free population axis (10^5-10^6 workers over a
  /// bounded shard set). Must be <= workers.
  std::size_t shards = 0;
};

/// Which device-realism generators the run's sim::Substrate composes on
/// top of the static fading/latency substrate. Knob pairs irrelevant to
/// the kind are ignored by build and omitted from to_json.
struct SubstrateSpec {
  /// "static" or a '+'-joined combination of churn | energy | csi_error
  /// (e.g. "churn+energy+csi_error").
  std::string kind = "static";
  double churn_period = 400.0;     ///< churn: diurnal on/off cycle length (virtual s)
  double churn_on_fraction = 0.7;  ///< churn: fraction of each cycle a worker is online
  double energy_budget = 50.0;     ///< energy: per-worker transmit budget (J)
  double energy_oma_upload = 1.0;  ///< energy: flat J charged per OMA upload
  double csi_error_std = 0.1;      ///< csi_error: std of the multiplicative estimate noise
};

/// One mechanism to run, with its tuning knobs. Knobs irrelevant to a kind
/// are ignored by build and omitted from to_json. Construction is
/// table-driven: the spec lowers to one uniform fl::MechanismConfig and the
/// kind indexes the mechanism registry (no per-kind constructor wiring).
struct MechanismSpec {
  /// fedavg | airfedavg | dynamic | tifl | fedasync | semiasync | airfedga
  std::string kind = "airfedga";
  double selection_quantile = 0.5;  ///< dynamic: per-round gain cutoff
  std::size_t tiers = 5;            ///< tifl: response-time tier count
  double mixing = 0.6;              ///< fedasync/semiasync: base mixing weight alpha
  double damping = 0.5;             ///< fedasync/semiasync: staleness exponent/rate
  std::size_t aggregate_count = 4;  ///< semiasync: flush the buffer at K uploads
  std::size_t staleness_bound = 4;  ///< semiasync: forced flush at this staleness
  std::string damping_schedule = "poly";  ///< semiasync: "poly" | "exp" sigma(tau)
  double xi = 0.3;                  ///< airfedga: constraint (36d) budget
  std::size_t refine_passes = 3;    ///< airfedga: Alg. 3 local-search passes
  double staleness_damping = 0.0;   ///< airfedga: FedAsync-style damping extension

  /// Lowers the spec's knobs into the uniform mechanism configuration.
  [[nodiscard]] fl::MechanismConfig to_config() const;

  /// Constructs the mechanism object this spec describes (registry lookup
  /// by kind, then the kind's factory applied to to_config()).
  [[nodiscard]] std::unique_ptr<fl::Mechanism> make() const;

  /// Display name of the mechanism kind ("Air-FedGA", ...).
  [[nodiscard]] std::string display_name() const;
};

/// Declarative description of a complete experiment: everything the
/// FLConfig surface covers (dataset, model, partition, local training,
/// wireless substrate, run control) plus the mechanism list. Round-trips
/// through JSON losslessly (to_json / from_json) and validates with
/// messages that name the offending field.
///
/// Seed convention: `seed` is the root seed. The partition RNG uses it
/// directly and the substrate streams derive from it (cluster = seed + 1,
/// fading = seed + 2) — the same rule the benchmark harness has always
/// used, so a preset reproduces its figure binary bit for bit. The
/// dataset generator seed is separate (dataset.seed) because the paper
/// fixes the workload while sweeping run seeds.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;

  DatasetSpec dataset;
  ModelSpec model;
  PartitionSpec partition;

  // Local training (Eq. 4)
  double learning_rate = 0.05;
  std::size_t local_steps = 1;
  std::size_t batch_size = 32;  ///< 0 = full local shard

  // Heterogeneity and wireless substrate (§VI-A2). Seeds inside these
  // configs are not serialized; build() derives them from `seed`.
  sim::ClusterModel::Config cluster;
  channel::LatencyConfig latency;
  channel::FadingChannel::Config fading;
  channel::AirCompChannel::Config aircomp;
  SubstrateSpec substrate;
  double energy_cap = 10.0;

  // Run control
  double time_budget = 5000.0;
  std::size_t max_rounds = 1000000;
  std::size_t eval_every = 10;
  std::size_t eval_samples = 1000;
  std::size_t eval_batch = 256;
  double stop_at_accuracy = -1.0;
  std::uint64_t seed = 42;
  std::size_t threads = 0;  ///< training lanes (0 = hardware concurrency)
  /// Selects nothing: kernels split across lanes only through
  /// util::parallel_for. Kept so existing specs parse and their config_hash
  /// holds.
  bool cooperative_gemm = true;
  /// "eager" | "lazy". Selects nothing: every run uses the pooled worker
  /// layout. Kept so existing specs parse and their config_hash holds.
  std::string worker_state = "eager";
  /// "heap" | "calendar". Selects nothing: every run uses the binary-heap
  /// event queue. Kept so existing specs parse and their config_hash holds.
  std::string event_queue = "heap";
  std::size_t cohort_size = 0;  ///< per-round training-cohort subsample (0 = all selected)
  bool trace = false;           ///< collect obs spans/metrics (read-only: digests unchanged)

  std::vector<MechanismSpec> mechanisms;

  /// Serializes every field (grouped into the schema documented in
  /// docs/SCENARIOS.md); dump -> parse -> from_json reproduces the spec
  /// exactly.
  [[nodiscard]] Json to_json() const;

  /// Parses a spec, rejecting unknown keys and wrong types with messages
  /// that carry the JSON path (e.g. "mechanisms[1].xi"). Absent fields
  /// keep their defaults. Does not validate() — call it separately.
  static ScenarioSpec from_json(const Json& j);

  /// Throws std::invalid_argument naming the field and the accepted values
  /// on any unusable configuration.
  void validate() const;
};

/// A materialized scenario: owned datasets, the FLConfig wired to them,
/// and the instantiated mechanism objects, ready to run.
struct BuiltScenario {
  std::unique_ptr<data::TrainTest> data;  ///< owns what cfg.train/test point to
  fl::FLConfig cfg;
  std::vector<std::string> mechanism_names;
  std::vector<std::unique_ptr<fl::Mechanism>> mechanisms;
};

/// Validates `spec`, generates the dataset, partitions it, and constructs
/// the mechanisms. The returned object is self-contained and movable.
BuiltScenario build(const ScenarioSpec& spec);

/// FNV-1a 64 hash of the spec's compact canonical JSON, as 16 hex chars.
/// Two specs hash equal iff their serialized configurations are identical.
std::string config_hash(const ScenarioSpec& spec);

}  // namespace airfedga::scenario
