#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "data/partition.hpp"
#include "ml/activation.hpp"
#include "ml/dense.hpp"
#include "ml/zoo.hpp"
#include "obs/trace.hpp"
#include "sim/substrate.hpp"

namespace airfedga::scenario {

namespace {

// ------------------------------------------------------- mechanism tables --

const std::vector<std::string> kDatasetKinds = {"mnist_like", "mnist_image_like",
                                                "cifar10_like", "imagenet100_like"};
const std::vector<std::string> kModelKinds = {"mlp", "mlp1", "softmax", "cnn_mnist",
                                              "cnn_cifar", "vgg_style"};
const std::vector<std::string> kPartitionKinds = {"label_skew", "iid", "dirichlet"};

/// The mechanism registry: one row per kind, holding the display name and
/// a factory over the uniform fl::MechanismConfig. Adding a mechanism is
/// one row here (plus its validate() knob checks) — no per-call-site
/// constructor wiring.
template <typename M>
std::unique_ptr<fl::Mechanism> make_mechanism(const fl::MechanismConfig& mc) {
  return std::make_unique<M>(mc);
}

struct MechanismKindEntry {
  const char* kind;
  const char* display;
  std::unique_ptr<fl::Mechanism> (*factory)(const fl::MechanismConfig&);
};

constexpr MechanismKindEntry kMechanismTable[] = {
    {"fedavg", "FedAvg", &make_mechanism<fl::FedAvg>},
    {"airfedavg", "Air-FedAvg", &make_mechanism<fl::AirFedAvg>},
    {"dynamic", "Dynamic", &make_mechanism<fl::DynamicAirComp>},
    {"tifl", "TiFL", &make_mechanism<fl::TiFL>},
    {"fedasync", "FedAsync", &make_mechanism<fl::FedAsync>},
    {"semiasync", "Semi-Async", &make_mechanism<fl::SemiAsync>},
    {"airfedga", "Air-FedGA", &make_mechanism<fl::AirFedGA>},
};

const MechanismKindEntry* find_mechanism_kind(const std::string& kind) {
  for (const auto& entry : kMechanismTable)
    if (kind == entry.kind) return &entry;
  return nullptr;
}

const std::vector<std::string> kMechanismKinds = [] {
  std::vector<std::string> kinds;
  for (const auto& entry : kMechanismTable) kinds.emplace_back(entry.kind);
  return kinds;
}();

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + v[i];
  return out;
}

bool known(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Input shape and class count of each dataset generator, used to check
/// model/dataset pairing at validate() time instead of deep inside the ML
/// layer at run time.
struct DatasetShape {
  std::size_t flat_dim;  ///< C*H*W (or D for flat datasets)
  std::size_t image;     ///< H (= W) for image datasets, 0 for flat ones
  std::size_t classes;
};

DatasetShape dataset_shape(const std::string& kind) {
  if (kind == "mnist_like") return {784, 0, 10};
  if (kind == "mnist_image_like") return {1 * 28 * 28, 28, 10};
  if (kind == "cifar10_like") return {3 * 16 * 16, 16, 10};
  if (kind == "imagenet100_like") return {3 * 16 * 16, 16, 100};
  throw std::invalid_argument("dataset.kind: unknown kind \"" + kind + "\" (one of: " +
                              join(kDatasetKinds) + ")");
}

// -------------------------------------------------------------- json read --

/// Reads one JSON object strictly: typed field getters with path-prefixed
/// error messages, and a final check that every present key was consumed
/// (so a typoed knob fails loudly instead of silently keeping a default).
class Reader {
 public:
  Reader(const Json& j, std::string path) : path_(std::move(path)) {
    if (!j.is_object())
      throw std::invalid_argument(path_ + ": expected an object, got " +
                                  Json::type_name(j.type()));
    obj_ = &j.as_object();
    consumed_.assign(obj_->size(), false);
  }

  void number(const char* key, double& out) {
    if (const Json* v = take(key)) out = expect_number(key, *v);
  }

  void count(const char* key, std::size_t& out) {
    if (const Json* v = take(key)) out = expect_count(key, *v);
  }

  void u64(const char* key, std::uint64_t& out) {
    if (const Json* v = take(key)) out = static_cast<std::uint64_t>(expect_count(key, *v));
  }

  void boolean(const char* key, bool& out) {
    if (const Json* v = take(key)) {
      if (!v->is_bool())
        throw std::invalid_argument(field(key) + ": expected a boolean, got " +
                                    Json::type_name(v->type()));
      out = v->as_bool();
    }
  }

  void str(const char* key, std::string& out) {
    if (const Json* v = take(key)) {
      if (!v->is_string())
        throw std::invalid_argument(field(key) + ": expected a string, got " +
                                    Json::type_name(v->type()));
      out = v->as_string();
    }
  }

  /// The raw member, marking it consumed; nullptr when absent.
  const Json* take(const char* key) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        consumed_[i] = true;
        return &(*obj_)[i].second;
      }
    }
    return nullptr;
  }

  /// Call last: rejects any key that was present but never taken.
  void finish() {
    for (std::size_t i = 0; i < obj_->size(); ++i)
      if (!consumed_[i])
        throw std::invalid_argument(field((*obj_)[i].first.c_str()) + ": unknown key");
  }

  [[nodiscard]] std::string field(const char* key) const {
    return path_.empty() ? std::string(key) : path_ + "." + key;
  }

 private:
  double expect_number(const char* key, const Json& v) const {
    if (!v.is_number())
      throw std::invalid_argument(field(key) + ": expected a number, got " +
                                  Json::type_name(v.type()));
    return v.as_number();
  }

  std::size_t expect_count(const char* key, const Json& v) const {
    const double d = expect_number(key, v);
    if (d < 0 || d != std::floor(d) || d > 9.007199254740992e15)
      throw std::invalid_argument(field(key) + ": expected a non-negative integer, got " +
                                  v.dump());
    return static_cast<std::size_t>(d);
  }

  const Json::Object* obj_;
  std::string path_;
  std::vector<bool> consumed_;
};

Reader sub(Reader& parent, const char* key) {
  const Json* v = parent.take(key);
  if (v == nullptr)
    throw std::invalid_argument(parent.field(key) + ": internal error, absent subobject");
  return Reader(*v, parent.field(key));
}

}  // namespace

// --------------------------------------------------------------- to_json --

Json ScenarioSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("description", description);

  Json ds = Json::object();
  ds.set("kind", dataset.kind);
  ds.set("train_samples", dataset.train_samples);
  ds.set("test_samples", dataset.test_samples);
  ds.set("seed", dataset.seed);
  j.set("dataset", std::move(ds));

  Json mo = Json::object();
  mo.set("kind", model.kind);
  if (model.kind == "mlp" || model.kind == "mlp1" || model.kind == "softmax") {
    mo.set("input_dim", model.input_dim);
    mo.set("num_classes", model.num_classes);
    if (model.kind != "softmax") mo.set("hidden", model.hidden);
  } else {
    mo.set("width_scale", model.width_scale);
    mo.set("image", model.image);
    if (model.kind == "vgg_style") mo.set("num_classes", model.num_classes);
  }
  j.set("model", std::move(mo));

  Json pa = Json::object();
  pa.set("kind", partition.kind);
  pa.set("workers", partition.workers);
  pa.set("shards", partition.shards);
  if (partition.kind == "dirichlet") pa.set("alpha", partition.alpha);
  j.set("partition", std::move(pa));

  Json tr = Json::object();
  tr.set("learning_rate", learning_rate);
  tr.set("local_steps", local_steps);
  tr.set("batch_size", batch_size);
  j.set("train", std::move(tr));

  Json cl = Json::object();
  cl.set("base_seconds", cluster.base_seconds);
  cl.set("kappa_min", cluster.kappa_min);
  cl.set("kappa_max", cluster.kappa_max);
  j.set("cluster", std::move(cl));

  Json la = Json::object();
  la.set("sub_channels", latency.sub_channels);
  la.set("symbol_seconds", latency.symbol_seconds);
  la.set("oma_rate_bps", latency.oma_rate_bps);
  la.set("bits_per_param", latency.bits_per_param);
  j.set("latency", std::move(la));

  Json fa = Json::object();
  fa.set("rayleigh_scale", fading.rayleigh_scale);
  fa.set("min_gain", fading.min_gain);
  fa.set("pathloss_exponent", fading.pathloss_exponent);
  fa.set("distance_min", fading.distance_min);
  fa.set("distance_max", fading.distance_max);
  j.set("fading", std::move(fa));

  Json ac = Json::object();
  ac.set("sigma0_sq", aircomp.sigma0_sq);
  j.set("aircomp", std::move(ac));

  {
    // Which knob pairs apply depends on the kind, mirroring ModelSpec. An
    // unparseable kind (validate() rejects it later) serializes every knob
    // so nothing is lost across a dump/reload of the bad spec.
    sim::SubstrateOptions opts;
    try {
      sim::set_substrate_kind(opts, substrate.kind);
    } catch (const std::invalid_argument&) {
      opts.churn = opts.energy = opts.csi_error = true;
    }
    Json su = Json::object();
    su.set("kind", substrate.kind);
    if (opts.churn) {
      su.set("churn_period", substrate.churn_period);
      su.set("churn_on_fraction", substrate.churn_on_fraction);
    }
    if (opts.energy) {
      su.set("energy_budget", substrate.energy_budget);
      su.set("energy_oma_upload", substrate.energy_oma_upload);
    }
    if (opts.csi_error) su.set("csi_error_std", substrate.csi_error_std);
    j.set("substrate", std::move(su));
  }

  j.set("energy_cap", energy_cap);

  Json ru = Json::object();
  ru.set("time_budget", time_budget);
  ru.set("max_rounds", max_rounds);
  ru.set("eval_every", eval_every);
  ru.set("eval_samples", eval_samples);
  ru.set("eval_batch", eval_batch);
  ru.set("stop_at_accuracy", stop_at_accuracy);
  ru.set("seed", seed);
  ru.set("threads", threads);
  ru.set("cooperative_gemm", cooperative_gemm);
  ru.set("worker_state", worker_state);
  ru.set("event_queue", event_queue);
  ru.set("cohort_size", cohort_size);
  ru.set("trace", trace);
  j.set("run", std::move(ru));

  Json mechs = Json::array();
  for (const auto& m : mechanisms) {
    Json mj = Json::object();
    mj.set("kind", m.kind);
    if (m.kind == "dynamic") mj.set("selection_quantile", m.selection_quantile);
    if (m.kind == "tifl") mj.set("tiers", m.tiers);
    if (m.kind == "fedasync") {
      mj.set("mixing", m.mixing);
      mj.set("damping", m.damping);
    }
    if (m.kind == "semiasync") {
      mj.set("mixing", m.mixing);
      mj.set("damping", m.damping);
      mj.set("aggregate_count", m.aggregate_count);
      mj.set("staleness_bound", m.staleness_bound);
      mj.set("damping_schedule", m.damping_schedule);
    }
    if (m.kind == "airfedga") {
      mj.set("xi", m.xi);
      mj.set("refine_passes", m.refine_passes);
      mj.set("staleness_damping", m.staleness_damping);
    }
    mechs.push_back(std::move(mj));
  }
  j.set("mechanisms", std::move(mechs));
  return j;
}

// ------------------------------------------------------------- from_json --

ScenarioSpec ScenarioSpec::from_json(const Json& j) {
  ScenarioSpec s;
  Reader r(j, "");
  r.str("name", s.name);
  r.str("description", s.description);

  if (j.contains("dataset")) {
    Reader d = sub(r, "dataset");
    d.str("kind", s.dataset.kind);
    d.count("train_samples", s.dataset.train_samples);
    d.count("test_samples", s.dataset.test_samples);
    d.u64("seed", s.dataset.seed);
    d.finish();
  }

  if (j.contains("model")) {
    Reader m = sub(r, "model");
    m.str("kind", s.model.kind);
    m.count("input_dim", s.model.input_dim);
    m.count("num_classes", s.model.num_classes);
    m.count("hidden", s.model.hidden);
    m.number("width_scale", s.model.width_scale);
    m.count("image", s.model.image);
    m.finish();
  }

  if (j.contains("partition")) {
    Reader p = sub(r, "partition");
    p.str("kind", s.partition.kind);
    p.count("workers", s.partition.workers);
    p.count("shards", s.partition.shards);
    p.number("alpha", s.partition.alpha);
    p.finish();
  }

  if (j.contains("train")) {
    Reader t = sub(r, "train");
    t.number("learning_rate", s.learning_rate);
    t.count("local_steps", s.local_steps);
    t.count("batch_size", s.batch_size);
    t.finish();
  }

  if (j.contains("cluster")) {
    Reader c = sub(r, "cluster");
    c.number("base_seconds", s.cluster.base_seconds);
    c.number("kappa_min", s.cluster.kappa_min);
    c.number("kappa_max", s.cluster.kappa_max);
    c.finish();
  }

  if (j.contains("latency")) {
    Reader l = sub(r, "latency");
    l.count("sub_channels", s.latency.sub_channels);
    l.number("symbol_seconds", s.latency.symbol_seconds);
    l.number("oma_rate_bps", s.latency.oma_rate_bps);
    l.number("bits_per_param", s.latency.bits_per_param);
    l.finish();
  }

  if (j.contains("fading")) {
    Reader f = sub(r, "fading");
    f.number("rayleigh_scale", s.fading.rayleigh_scale);
    f.number("min_gain", s.fading.min_gain);
    f.number("pathloss_exponent", s.fading.pathloss_exponent);
    f.number("distance_min", s.fading.distance_min);
    f.number("distance_max", s.fading.distance_max);
    f.finish();
  }

  if (j.contains("aircomp")) {
    Reader a = sub(r, "aircomp");
    a.number("sigma0_sq", s.aircomp.sigma0_sq);
    a.finish();
  }

  if (j.contains("substrate")) {
    Reader su = sub(r, "substrate");
    su.str("kind", s.substrate.kind);
    su.number("churn_period", s.substrate.churn_period);
    su.number("churn_on_fraction", s.substrate.churn_on_fraction);
    su.number("energy_budget", s.substrate.energy_budget);
    su.number("energy_oma_upload", s.substrate.energy_oma_upload);
    su.number("csi_error_std", s.substrate.csi_error_std);
    su.finish();
  }

  r.number("energy_cap", s.energy_cap);

  if (j.contains("run")) {
    Reader u = sub(r, "run");
    u.number("time_budget", s.time_budget);
    u.count("max_rounds", s.max_rounds);
    u.count("eval_every", s.eval_every);
    u.count("eval_samples", s.eval_samples);
    u.count("eval_batch", s.eval_batch);
    u.number("stop_at_accuracy", s.stop_at_accuracy);
    u.u64("seed", s.seed);
    u.count("threads", s.threads);
    u.boolean("cooperative_gemm", s.cooperative_gemm);
    u.str("worker_state", s.worker_state);
    u.str("event_queue", s.event_queue);
    u.count("cohort_size", s.cohort_size);
    u.boolean("trace", s.trace);
    u.finish();
  }

  if (const Json* mechs = r.take("mechanisms")) {
    if (!mechs->is_array())
      throw std::invalid_argument(std::string("mechanisms: expected an array, got ") +
                                  Json::type_name(mechs->type()));
    for (std::size_t i = 0; i < mechs->as_array().size(); ++i) {
      const std::string path = "mechanisms[" + std::to_string(i) + "]";
      Reader m((*mechs).as_array()[i], path);
      MechanismSpec ms;
      m.str("kind", ms.kind);
      m.number("selection_quantile", ms.selection_quantile);
      m.count("tiers", ms.tiers);
      m.number("mixing", ms.mixing);
      m.number("damping", ms.damping);
      m.count("aggregate_count", ms.aggregate_count);
      m.count("staleness_bound", ms.staleness_bound);
      m.str("damping_schedule", ms.damping_schedule);
      m.number("xi", ms.xi);
      m.count("refine_passes", ms.refine_passes);
      m.number("staleness_damping", ms.staleness_damping);
      m.finish();
      s.mechanisms.push_back(ms);
    }
  }

  r.finish();
  return s;
}

// -------------------------------------------------------------- validate --

void ScenarioSpec::validate() const {
  auto bad = [](const std::string& message) { throw std::invalid_argument(message); };

  if (name.empty()) bad("name: must not be empty");

  if (!known(kDatasetKinds, dataset.kind))
    bad("dataset.kind: unknown kind \"" + dataset.kind + "\" (one of: " + join(kDatasetKinds) +
        ")");
  if (dataset.train_samples == 0) bad("dataset.train_samples: must be >= 1");
  if (dataset.test_samples == 0) bad("dataset.test_samples: must be >= 1");

  const DatasetShape shape = dataset_shape(dataset.kind);
  if (!known(kModelKinds, model.kind))
    bad("model.kind: unknown kind \"" + model.kind + "\" (one of: " + join(kModelKinds) + ")");
  if (model.kind == "mlp" || model.kind == "mlp1" || model.kind == "softmax") {
    if (model.kind == "mlp" && shape.image != 0)
      bad(std::string("model.kind: \"mlp\" expects a flat dataset; use \"mlp1\" (which "
                      "flattens) or a conv model with dataset.kind \"") +
          dataset.kind + "\"");
    if (model.input_dim != shape.flat_dim)
      bad("model.input_dim: " + std::to_string(model.input_dim) + " does not match dataset \"" +
          dataset.kind + "\" (" + std::to_string(shape.flat_dim) + " features)");
    if (model.num_classes != shape.classes)
      bad("model.num_classes: " + std::to_string(model.num_classes) +
          " does not match dataset \"" + dataset.kind + "\" (" + std::to_string(shape.classes) +
          " classes)");
    if (model.kind != "softmax" && model.hidden == 0) bad("model.hidden: must be >= 1");
  } else {
    if (shape.image == 0)
      bad("model.kind: \"" + model.kind + "\" needs an image-shaped dataset, but \"" +
          dataset.kind + "\" is flat (use mnist_image_like / cifar10_like / imagenet100_like)");
    if (model.image != shape.image)
      bad("model.image: " + std::to_string(model.image) + " does not match dataset \"" +
          dataset.kind + "\" (" + std::to_string(shape.image) + "x" + std::to_string(shape.image) +
          " images)");
    if (model.width_scale <= 0.0) bad("model.width_scale: must be > 0");
    const std::size_t div = model.kind == "vgg_style" ? 8 : 4;
    if (model.image % div != 0)
      bad("model.image: must be divisible by " + std::to_string(div) + " for " + model.kind);
    if (model.kind == "cnn_mnist" && dataset.kind != "mnist_image_like")
      bad("model.kind: cnn_mnist expects 1-channel images (dataset.kind mnist_image_like), got \"" +
          dataset.kind + "\"");
    if (model.kind != "cnn_mnist" && dataset.kind == "mnist_image_like")
      bad("model.kind: " + model.kind + " expects 3-channel images, but \"" + dataset.kind +
          "\" has 1 channel");
    if (model.kind == "cnn_cifar" && shape.classes != 10)
      bad("model.kind: cnn_cifar has a 10-class head, but dataset \"" + dataset.kind + "\" has " +
          std::to_string(shape.classes) + " classes");
    if (model.kind == "vgg_style" && model.num_classes != shape.classes)
      bad("model.num_classes: " + std::to_string(model.num_classes) +
          " does not match dataset \"" + dataset.kind + "\" (" + std::to_string(shape.classes) +
          " classes)");
  }

  if (!known(kPartitionKinds, partition.kind))
    bad("partition.kind: unknown kind \"" + partition.kind + "\" (one of: " +
        join(kPartitionKinds) + ")");
  if (partition.workers == 0) bad("partition.workers: must be >= 1");
  if (partition.shards == 0 && partition.workers > dataset.train_samples)
    bad("partition.workers: " + std::to_string(partition.workers) + " workers need at least as "
        "many training samples (dataset.train_samples = " +
        std::to_string(dataset.train_samples) + "); set partition.shards to scale the "
        "population past the sample count");
  if (partition.shards > partition.workers)
    bad("partition.shards: " + std::to_string(partition.shards) +
        " must be <= partition.workers (" + std::to_string(partition.workers) + ")");
  if (partition.shards > dataset.train_samples)
    bad("partition.shards: " + std::to_string(partition.shards) + " shards need at least as "
        "many training samples (dataset.train_samples = " +
        std::to_string(dataset.train_samples) + ")");
  if (partition.kind == "dirichlet" && partition.alpha <= 0.0)
    bad("partition.alpha: dirichlet concentration must be > 0");

  if (learning_rate <= 0.0) bad("train.learning_rate: must be > 0");
  if (local_steps == 0) bad("train.local_steps: must be >= 1");

  if (cluster.base_seconds <= 0.0) bad("cluster.base_seconds: must be > 0");
  if (cluster.kappa_min <= 0.0) bad("cluster.kappa_min: must be > 0");
  if (cluster.kappa_max < cluster.kappa_min)
    bad("cluster.kappa_max: must be >= cluster.kappa_min");

  if (latency.sub_channels == 0) bad("latency.sub_channels: must be >= 1");
  if (latency.symbol_seconds <= 0.0) bad("latency.symbol_seconds: must be > 0");
  if (latency.oma_rate_bps <= 0.0) bad("latency.oma_rate_bps: must be > 0");
  if (latency.bits_per_param <= 0.0) bad("latency.bits_per_param: must be > 0");

  if (fading.rayleigh_scale <= 0.0) bad("fading.rayleigh_scale: must be > 0");
  if (fading.min_gain <= 0.0) bad("fading.min_gain: must be > 0");
  if (fading.pathloss_exponent < 0.0) bad("fading.pathloss_exponent: must be >= 0");
  if (fading.pathloss_exponent > 0.0 &&
      (fading.distance_min <= 0.0 || fading.distance_max < fading.distance_min))
    bad("fading.distance_min/distance_max: need 0 < distance_min <= distance_max");

  if (aircomp.sigma0_sq < 0.0) bad("aircomp.sigma0_sq: must be >= 0");

  {
    sim::SubstrateOptions opts;
    try {
      sim::set_substrate_kind(opts, substrate.kind);
    } catch (const std::invalid_argument& e) {
      bad(std::string("substrate.kind: ") + e.what());
    }
    if (opts.churn && substrate.churn_period <= 0.0) bad("substrate.churn_period: must be > 0");
    if (opts.churn && (substrate.churn_on_fraction <= 0.0 || substrate.churn_on_fraction > 1.0))
      bad("substrate.churn_on_fraction: must be in (0, 1]");
    if (opts.energy && substrate.energy_budget <= 0.0)
      bad("substrate.energy_budget: must be > 0");
    if (opts.energy && substrate.energy_oma_upload < 0.0)
      bad("substrate.energy_oma_upload: must be >= 0");
    if (opts.csi_error && substrate.csi_error_std < 0.0)
      bad("substrate.csi_error_std: must be >= 0");
  }

  if (energy_cap <= 0.0) bad("energy_cap: must be > 0");

  if (time_budget <= 0.0) bad("run.time_budget: must be > 0");
  if (max_rounds == 0) bad("run.max_rounds: must be >= 1");
  if (eval_every == 0) bad("run.eval_every: must be >= 1");
  if (eval_samples == 0) bad("run.eval_samples: must be >= 1");
  if (eval_batch == 0) bad("run.eval_batch: must be >= 1");
  if (stop_at_accuracy > 1.0) bad("run.stop_at_accuracy: must be <= 1 (a fraction, not percent)");
  if (worker_state != "eager" && worker_state != "lazy")
    bad("run.worker_state: must be \"eager\" or \"lazy\", got \"" + worker_state + "\"");
  if (event_queue != "heap" && event_queue != "calendar")
    bad("run.event_queue: must be \"heap\" or \"calendar\", got \"" + event_queue + "\"");
  if (cohort_size != 0)
    for (const auto& m : mechanisms)
      if (m.kind == "airfedga" || m.kind == "semiasync")
        bad("run.cohort_size: cohort sampling is incompatible with mechanism kind \"" + m.kind +
            "\" (group/buffer-triggered membership is the mechanism itself)");

  if (mechanisms.empty())
    bad("mechanisms: at least one mechanism is required (one of: " + join(kMechanismKinds) + ")");
  for (std::size_t i = 0; i < mechanisms.size(); ++i) {
    const auto& m = mechanisms[i];
    const std::string p = "mechanisms[" + std::to_string(i) + "].";
    if (!known(kMechanismKinds, m.kind))
      bad(p + "kind: unknown kind \"" + m.kind + "\" (one of: " + join(kMechanismKinds) + ")");
    if (m.kind == "dynamic" && (m.selection_quantile < 0.0 || m.selection_quantile >= 1.0))
      bad(p + "selection_quantile: must be in [0, 1)");
    if (m.kind == "tifl" && m.tiers == 0) bad(p + "tiers: must be >= 1");
    const bool damped = m.kind == "fedasync" || m.kind == "semiasync";
    if (damped && (m.mixing <= 0.0 || m.mixing > 1.0)) bad(p + "mixing: must be in (0, 1]");
    if (damped && m.damping < 0.0) bad(p + "damping: must be >= 0");
    if (m.kind == "semiasync" && m.aggregate_count == 0)
      bad(p + "aggregate_count: must be >= 1");
    if (m.kind == "semiasync" && m.damping_schedule != "poly" && m.damping_schedule != "exp")
      bad(p + "damping_schedule: must be \"poly\" or \"exp\"");
    if (m.kind == "airfedga" && (m.xi < 0.0 || m.xi > 1.0)) bad(p + "xi: must be in [0, 1]");
    if (m.kind == "airfedga" && m.staleness_damping < 0.0)
      bad(p + "staleness_damping: must be >= 0");
  }
}

// ----------------------------------------------------------------- build --

std::string MechanismSpec::display_name() const {
  if (const auto* entry = find_mechanism_kind(kind)) return entry->display;
  throw std::invalid_argument("mechanism kind: unknown kind \"" + kind + "\" (one of: " +
                              join(kMechanismKinds) + ")");
}

fl::MechanismConfig MechanismSpec::to_config() const {
  fl::MechanismConfig mc;
  mc.selection_quantile = selection_quantile;
  mc.tiers = tiers;
  mc.mixing = mixing;
  mc.damping = damping;
  mc.aggregate_count = aggregate_count;
  mc.staleness_bound = staleness_bound;
  mc.damping_schedule = damping_schedule;
  mc.grouping.xi = xi;
  mc.grouping.refine_passes = refine_passes;
  mc.staleness_damping = staleness_damping;
  return mc;
}

std::unique_ptr<fl::Mechanism> MechanismSpec::make() const {
  if (const auto* entry = find_mechanism_kind(kind)) return entry->factory(to_config());
  throw std::invalid_argument("mechanism kind: unknown kind \"" + kind + "\" (one of: " +
                              join(kMechanismKinds) + ")");
}

namespace {

data::TrainTest make_dataset(const DatasetSpec& d) {
  if (d.kind == "mnist_like") return data::make_mnist_like(d.train_samples, d.test_samples, d.seed);
  if (d.kind == "mnist_image_like")
    return data::make_mnist_image_like(d.train_samples, d.test_samples, d.seed);
  if (d.kind == "cifar10_like")
    return data::make_cifar10_like(d.train_samples, d.test_samples, d.seed);
  if (d.kind == "imagenet100_like")
    return data::make_imagenet100_like(d.train_samples, d.test_samples, d.seed);
  throw std::invalid_argument("dataset.kind: unknown kind \"" + d.kind + "\" (one of: " +
                              join(kDatasetKinds) + ")");
}

ml::ModelFactory make_model_factory(const ModelSpec& m) {
  if (m.kind == "mlp")
    return [m] { return ml::make_mlp(m.input_dim, m.num_classes, m.hidden); };
  if (m.kind == "mlp1") {
    return [m] {
      ml::Model net;
      net.add(std::make_unique<ml::Flatten>());
      net.add(std::make_unique<ml::Dense>(m.input_dim, m.hidden));
      net.add(std::make_unique<ml::ReLU>());
      net.add(std::make_unique<ml::Dense>(m.hidden, m.num_classes));
      return net;
    };
  }
  if (m.kind == "softmax")
    return [m] { return ml::make_softmax_regression(m.input_dim, m.num_classes); };
  if (m.kind == "cnn_mnist") return [m] { return ml::make_cnn_mnist(m.width_scale, m.image); };
  if (m.kind == "cnn_cifar") return [m] { return ml::make_cnn_cifar(m.width_scale, m.image); };
  if (m.kind == "vgg_style")
    return [m] { return ml::make_vgg_style(m.image, m.num_classes, m.width_scale); };
  throw std::invalid_argument("model.kind: unknown kind \"" + m.kind + "\" (one of: " +
                              join(kModelKinds) + ")");
}

data::Partition make_partition(const PartitionSpec& p, const data::Dataset& train,
                               util::Rng& rng) {
  if (p.kind == "label_skew") return data::partition_label_skew(train, p.workers, rng);
  if (p.kind == "iid") return data::partition_iid(train, p.workers, rng);
  if (p.kind == "dirichlet") return data::partition_dirichlet(train, p.workers, p.alpha, rng);
  throw std::invalid_argument("partition.kind: unknown kind \"" + p.kind + "\" (one of: " +
                              join(kPartitionKinds) + ")");
}

}  // namespace

BuiltScenario build(const ScenarioSpec& spec) {
  spec.validate();

  BuiltScenario out;
  {
    const obs::Span span("setup", "setup.dataset");
    out.data = std::make_unique<data::TrainTest>(make_dataset(spec.dataset));
  }

  fl::FLConfig& cfg = out.cfg;
  cfg.train = &out.data->train;
  cfg.test = &out.data->test;
  util::Rng rng(spec.seed);
  // With shards set, the partitioner splits into that many shards and the
  // worker count becomes the (possibly much larger) population axis.
  PartitionSpec pspec = spec.partition;
  if (spec.partition.shards > 0) pspec.workers = spec.partition.shards;
  {
    const obs::Span span("setup", "setup.partition");
    cfg.partition = make_partition(pspec, out.data->train, rng);
  }
  if (spec.partition.shards > 0) cfg.population = spec.partition.workers;
  cfg.model_factory = make_model_factory(spec.model);

  cfg.learning_rate = static_cast<float>(spec.learning_rate);
  cfg.local_steps = spec.local_steps;
  cfg.batch_size = spec.batch_size;

  // Substrate seeds derive from the run seed exactly like bench::Experiment
  // always has, so presets reproduce their figure binaries bit for bit.
  cfg.cluster = spec.cluster;
  cfg.cluster.seed = spec.seed + 1;
  cfg.latency = spec.latency;
  cfg.fading = spec.fading;
  cfg.fading.seed = spec.seed + 2;
  cfg.aircomp = spec.aircomp;
  sim::set_substrate_kind(cfg.substrate, spec.substrate.kind);
  cfg.substrate.churn_period = spec.substrate.churn_period;
  cfg.substrate.churn_on_fraction = spec.substrate.churn_on_fraction;
  cfg.substrate.energy_budget = spec.substrate.energy_budget;
  cfg.substrate.energy_oma_upload = spec.substrate.energy_oma_upload;
  cfg.substrate.csi_error_std = spec.substrate.csi_error_std;
  cfg.energy_cap = spec.energy_cap;

  cfg.time_budget = spec.time_budget;
  cfg.max_rounds = spec.max_rounds;
  cfg.eval_every = spec.eval_every;
  cfg.eval_samples = spec.eval_samples;
  cfg.eval_batch = spec.eval_batch;
  cfg.stop_at_accuracy = spec.stop_at_accuracy;
  cfg.seed = spec.seed;
  cfg.threads = spec.threads;
  cfg.cohort_size = spec.cohort_size;
  cfg.trace = spec.trace;
  cfg.validate();

  const obs::Span span("setup", "setup.mechanisms");
  for (const auto& m : spec.mechanisms) {
    out.mechanism_names.push_back(m.display_name());
    out.mechanisms.push_back(m.make());
  }
  return out;
}

std::string config_hash(const ScenarioSpec& spec) {
  const std::string canon = spec.to_json().dump();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (unsigned char c : canon) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace airfedga::scenario
