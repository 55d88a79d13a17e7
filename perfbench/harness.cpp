// One repeat of one benchmark workload, in this process. Prints the raw
// measurements as one JSON line on stdout; perfbench/run.py starts one
// process per repeat (so VmHWM and the process-wide trace switch never leak
// between repeats), aggregates the repeats and checks digests across them.
//
// Usage:
//   perfbench_harness --workload=NAME --seed=N --passes=direct|farm|farm,direct
//                     [--traced=0|1] [--out-dir=DIR]
//
// Passes:
//   direct  builds each variant with scenario::build and runs every mechanism
//           wrapped in TimedMechanism (hook timers, aggregate intervals,
//           trained samples). A multi-variant workload runs its variants
//           `jobs` at a time, like the farm does.
//   farm    runs the variant list through scenario::run_farm into DIR, then
//           times merge_results over the finished directory.
// With both passes the two must produce identical digests.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "timed_mechanism.hpp"

namespace {

using namespace airfedga;
using perfbench::Clock;
using perfbench::HookStats;
using perfbench::HookTime;
using perfbench::seconds_between;
using scenario::Json;

// ------------------------------------------------------------- workloads --

/// A workload: the base spec, the sweep axes that expand it into the
/// variant list, and how many variants run at once.
struct Workload {
  scenario::ScenarioSpec base;
  std::vector<scenario::SweepAxis> axes;
  std::size_t jobs = 1;
};

scenario::MechanismSpec mech(const std::string& kind) {
  scenario::MechanismSpec m;
  m.kind = kind;
  return m;
}

// The fig05 shape (CNN on CIFAR-10-like, 100 label-skew workers) with
// Air-FedGA only: local training in the ml layer dominates the wall time.
// 300 virtual seconds is about 30 aggregations. The seed picks the data;
// the run seed stays the preset's, because it draws the worker speeds and
// hence the Alg. 3 groups, whose sizes set the work per aggregation.
scenario::ScenarioSpec cnn_airfedga(std::uint64_t seed) {
  scenario::ScenarioSpec s;
  s.name = "cnn_airfedga";
  s.dataset = {"cifar10_like", 6000, 1000, seed};
  s.model.kind = "cnn_cifar";
  s.model.width_scale = 0.2;
  s.model.image = 16;
  s.partition.workers = 100;
  s.learning_rate = 0.3;
  s.batch_size = 16;
  s.local_steps = 2;
  s.time_budget = 300.0;
  s.eval_every = 10;
  s.eval_samples = 400;
  s.threads = 2;
  s.mechanisms = {mech("airfedga")};
  return s;
}

// 10^6 workers over 200 data shards with diurnal churn: the event queue
// holds one availability event per worker, every round samples gains over
// the whole population, and the lazy pool materializes 32-worker cohorts.
// Softmax with batch 16 keeps the ml layer small.
scenario::ScenarioSpec population_churn_1m(std::uint64_t seed) {
  scenario::ScenarioSpec s;
  s.name = "population_churn_1m";
  s.dataset = {"mnist_like", 6000, 1000, seed};
  s.model.kind = "softmax";
  s.partition.workers = 1000000;
  s.partition.shards = 200;
  s.learning_rate = 0.05;
  s.batch_size = 16;
  s.local_steps = 2;
  s.substrate.kind = "churn";
  s.substrate.churn_period = 300.0;
  s.substrate.churn_on_fraction = 0.7;
  s.time_budget = 1e9;  // capped by rounds, not virtual time
  s.max_rounds = 20;
  s.eval_every = 10;
  s.eval_samples = 256;
  s.seed = seed;
  s.threads = 2;
  s.worker_state = "lazy";
  s.event_queue = "calendar";
  s.cohort_size = 32;
  s.mechanisms = {mech("airfedavg")};
  return s;
}

// The device-realism study shape: all seven mechanisms on a 16-worker
// softmax federation, swept over five substrates and three run seeds
// (15 variants, 105 runs), two variants at a time on one lane each.
Workload farm_realism(std::uint64_t seed) {
  scenario::ScenarioSpec s;
  s.name = "farm_realism";
  s.dataset = {"mnist_like", 1600, 400, seed};
  s.model.kind = "softmax";
  s.partition.workers = 16;
  s.learning_rate = 0.3;
  s.local_steps = 1;
  s.batch_size = 0;
  s.substrate.churn_period = 300.0;
  s.substrate.churn_on_fraction = 0.7;
  s.substrate.energy_budget = 150.0;
  s.substrate.energy_oma_upload = 1.0;
  s.substrate.csi_error_std = 0.15;
  s.time_budget = 600.0;
  s.max_rounds = 30;
  s.eval_every = 2;
  s.eval_samples = 250;
  s.seed = seed;
  s.threads = 1;
  s.mechanisms = {mech("fedavg"), mech("airfedavg"), mech("dynamic"), mech("tifl"),
                  mech("fedasync"), mech("semiasync"), mech("airfedga")};
  s.mechanisms[3].tiers = 3;

  Workload w;
  w.base = s;
  w.axes.push_back({"substrate.kind",
                    {Json("static"), Json("churn"), Json("energy"), Json("csi_error"),
                     Json("churn+energy+csi_error")}});
  w.axes.push_back({"run.seed", {Json(seed), Json(seed + 1), Json(seed + 2)}});
  w.jobs = 2;
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "cnn_airfedga") return {cnn_airfedga(seed), {}, 1};
  if (name == "population_churn_1m") return {population_churn_1m(seed), {}, 1};
  if (name == "farm_realism") return farm_realism(seed);
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (one of: cnn_airfedga, population_churn_1m, farm_realism)");
}

// ------------------------------------------------------------- utilities --

/// Peak resident set size of this process in MiB (VmHWM), or 0 where
/// /proc is unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Json number_array(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push_back(Json(x));
  return a;
}

Json string_array(const std::vector<std::string>& v) {
  Json a = Json::array();
  for (const auto& s : v) a.push_back(Json(s));
  return a;
}

void add_hook(HookTime& into, const HookTime& from) {
  into.seconds += from.seconds;
  into.calls += from.calls;
}

void merge_hooks(HookStats& into, const HookStats& from) {
  add_hook(into.check, from.check);
  add_hook(into.cohorts, from.cohorts);
  add_hook(into.select, from.select);
  add_hook(into.upload, from.upload);
  add_hook(into.aggregate_time, from.aggregate_time);
  add_hook(into.flush, from.flush);
  add_hook(into.aggregate, from.aggregate);
  add_hook(into.reweight, from.reweight);
  into.driver_init_s += from.driver_init_s;
  into.aggregate_members += from.aggregate_members;
  into.train_samples += from.train_samples;
  into.agg_interval_ms.insert(into.agg_interval_ms.end(), from.agg_interval_ms.begin(),
                              from.agg_interval_ms.end());
}

Json hook_json(const HookTime& h) {
  Json j = Json::object();
  j.set("s", h.seconds);
  j.set("calls", h.calls);
  return j;
}

// ---------------------------------------------------------------- direct --

/// Everything the direct pass measured, summed over its runs.
struct DirectResult {
  double wall_s = 0.0;  ///< the whole pass (per-variant builds included)
  double runs_s = 0.0;  ///< sum of Mechanism::run wall times
  double build_s = 0.0; ///< sum of scenario::build wall times inside the pass
  HookStats hooks;
  fl::EngineStats engine;
  std::map<std::string, std::uint64_t> counters;  ///< obs registry, summed
  obs::MetricsSnapshot::HistogramData pending;    ///< eventq.pending, merged
  std::vector<std::string> digests;               ///< variant-major, mechanism order
  std::size_t attempted = 0;
  std::vector<std::string> errors;
};

/// One variant's runs; filled by whichever thread ran the variant.
struct VariantRuns {
  double runs_s = 0.0;
  double build_s = 0.0;
  HookStats hooks;
  std::vector<fl::Metrics> metrics;
  std::vector<std::string> digests;
  std::vector<std::string> errors;
};

void run_variant(scenario::BuiltScenario& built, VariantRuns& out) {
  for (std::size_t i = 0; i < built.mechanisms.size(); ++i) {
    perfbench::TimedMechanism timed(std::move(built.mechanisms[i]));
    try {
      obs::Span span("bench", "bench.run");
      const auto t0 = Clock::now();
      fl::Metrics m = timed.run(built.cfg);
      out.runs_s += seconds_between(t0, Clock::now());
      out.digests.push_back(m.digest());
      out.metrics.push_back(std::move(m));
    } catch (const std::exception& e) {
      out.digests.push_back("error");
      out.errors.push_back(built.mechanism_names[i] + ": " + e.what());
    }
    merge_hooks(out.hooks, timed.stats());
  }
}

void fold_metrics(DirectResult& r, const fl::Metrics& m) {
  const fl::EngineStats& es = m.engine_stats();
  r.engine.barrier_seconds += es.barrier_seconds;
  r.engine.eval_seconds += es.eval_seconds;
  r.engine.barriers += es.barriers;
  r.engine.evals += es.evals;
  r.engine.coop_gemms += es.coop_gemms;
  r.engine.coop_helper_tiles += es.coop_helper_tiles;
  for (const auto& [name, value] : m.obs_snapshot().counters) r.counters[name] += value;
  for (const auto& h : m.obs_snapshot().histograms) {
    if (h.name != "eventq.pending") continue;
    if (r.pending.counts.empty()) {
      r.pending = h;
      continue;
    }
    for (std::size_t b = 0; b < h.counts.size() && b < r.pending.counts.size(); ++b)
      r.pending.counts[b] += h.counts[b];
    r.pending.count += h.count;
    r.pending.sum += h.sum;
  }
}

/// Runs the variants `jobs` at a time. `prebuilt` (single-variant
/// workloads) was built during setup and is run as is.
DirectResult run_direct(const std::vector<scenario::ScenarioSpec>& variants, std::size_t jobs,
                        scenario::BuiltScenario* prebuilt) {
  std::vector<VariantRuns> slots(variants.size());
  const auto t0 = Clock::now();
  if (prebuilt != nullptr) {
    run_variant(*prebuilt, slots[0]);
  } else {
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t v = next.fetch_add(1); v < variants.size(); v = next.fetch_add(1)) {
        try {
          const auto b0 = Clock::now();
          scenario::BuiltScenario built = [&] {
            obs::Span span("bench", "bench.build");
            return scenario::build(variants[v]);
          }();
          slots[v].build_s = seconds_between(b0, Clock::now());
          run_variant(built, slots[v]);
        } catch (const std::exception& e) {
          slots[v].errors.push_back(variants[v].name + ": " + e.what());
          slots[v].digests.assign(variants[v].mechanisms.size(), "error");
        }
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < std::min(jobs, variants.size()); ++j) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  DirectResult r;
  r.wall_s = seconds_between(t0, Clock::now());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    VariantRuns& s = slots[v];
    r.runs_s += s.runs_s;
    r.build_s += s.build_s;
    merge_hooks(r.hooks, s.hooks);
    for (const auto& m : s.metrics) fold_metrics(r, m);
    r.digests.insert(r.digests.end(), s.digests.begin(), s.digests.end());
    r.errors.insert(r.errors.end(), s.errors.begin(), s.errors.end());
    r.attempted += variants[v].mechanisms.size();
  }
  return r;
}

Json direct_json(const DirectResult& r) {
  const HookStats& h = r.hooks;
  Json hooks = Json::object();
  hooks.set("check", hook_json(h.check));
  hooks.set("cohorts", hook_json(h.cohorts));
  hooks.set("select", hook_json(h.select));
  hooks.set("upload", hook_json(h.upload));
  hooks.set("aggregate_time", hook_json(h.aggregate_time));
  hooks.set("flush", hook_json(h.flush));
  hooks.set("aggregate", hook_json(h.aggregate));
  hooks.set("reweight", hook_json(h.reweight));

  Json engine = Json::object();
  engine.set("barrier_s", r.engine.barrier_seconds);
  engine.set("barriers", r.engine.barriers);
  engine.set("eval_s", r.engine.eval_seconds);
  engine.set("evals", r.engine.evals);
  engine.set("coop_regions", r.engine.coop_gemms);
  engine.set("coop_helper_tiles", r.engine.coop_helper_tiles);

  Json counters = Json::object();
  for (const auto& [name, value] : r.counters) counters.set(name, value);
  Json pending = Json::object();
  pending.set("bounds", number_array(r.pending.bounds));
  Json counts = Json::array();
  for (auto c : r.pending.counts) counts.push_back(Json(c));
  pending.set("counts", std::move(counts));
  pending.set("count", r.pending.count);
  pending.set("sum", r.pending.sum);

  Json j = Json::object();
  j.set("wall_s", r.wall_s);
  j.set("runs_s", r.runs_s);
  j.set("build_s", r.build_s);
  j.set("hooks", std::move(hooks));
  j.set("driver_init_s", h.driver_init_s);
  j.set("aggregate_members", h.aggregate_members);
  j.set("train_samples", h.train_samples);
  j.set("agg_ms", number_array(h.agg_interval_ms));
  j.set("engine", std::move(engine));
  j.set("counters", std::move(counters));
  j.set("eventq_pending", std::move(pending));
  j.set("digests", string_array(r.digests));
  j.set("attempted", r.attempted);
  j.set("errors", string_array(r.errors));
  return j;
}

// ------------------------------------------------------------------ farm --

Json run_farm_pass(const std::vector<scenario::ScenarioSpec>& variants, std::size_t jobs,
                   const std::string& out_dir) {
  // Per-variant wall time from on_status: each farm job thread runs its
  // variants back to back, so the time since the same thread's previous
  // settle (or the farm start) is the variant's wall time including its
  // journal and stash writes. on_status calls are serialized by the farm.
  std::map<std::thread::id, Clock::time_point> last_settle;
  std::vector<double> variant_s;
  scenario::FarmOptions opt;
  opt.jobs = jobs;
  opt.lane_budget = jobs > 1 ? jobs : 0;
  const auto t0 = Clock::now();
  opt.on_status = [&](const scenario::VariantStatus&) {
    const auto now = Clock::now();
    auto [it, fresh] = last_settle.try_emplace(std::this_thread::get_id(), t0);
    variant_s.push_back(seconds_between(it->second, now));
    it->second = now;
  };

  scenario::FarmResult res = [&] {
    obs::Span span("bench", "bench.farm");
    return scenario::run_farm(variants, out_dir, {}, opt);
  }();
  const double farm_s = seconds_between(t0, Clock::now());

  const auto a0 = Clock::now();
  scenario::FarmResult merged = [&] {
    obs::Span span("bench", "bench.assemble");
    return scenario::merge_results(out_dir + "/merged", {out_dir});
  }();
  const double assemble_s = seconds_between(a0, Clock::now());

  std::vector<std::string> digests;
  std::vector<std::string> errors;
  double records_wall_s = 0.0;
  for (const Json& rec : res.records) {
    digests.push_back(rec.at("digest").as_string());
    records_wall_s += rec.at("wall_seconds").as_number();
  }
  std::size_t attempted = 0;
  std::size_t failed_runs = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    attempted += variants[v].mechanisms.size();
    if (res.statuses[v].state != scenario::VariantStatus::State::kDone) {
      failed_runs += variants[v].mechanisms.size();
      errors.push_back(res.statuses[v].name + ": " + res.statuses[v].error);
    }
  }
  if (merged.records.size() != res.records.size())
    errors.push_back("merge_results assembled " + std::to_string(merged.records.size()) +
                     " records, run_farm " + std::to_string(res.records.size()));

  Json j = Json::object();
  j.set("run_s", farm_s);
  j.set("records_wall_s", records_wall_s);
  j.set("jobs", jobs);
  j.set("variants", variants.size());
  j.set("variant_s", number_array(variant_s));
  j.set("assemble_s", assemble_s);
  j.set("retries", res.retries);
  j.set("quarantined", res.failed);
  j.set("digests", string_array(digests));
  j.set("attempted", attempted);
  j.set("failed_runs", failed_runs);
  j.set("errors", string_array(errors));
  // Peak RSS of the farm alone: the pass runs before any direct replay.
  j.set("rss_mib", peak_rss_mib());
  return j;
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool direct = false;
  bool farm = false;
  bool traced = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--passes") {
      a.direct = value.find("direct") != std::string::npos;
      a.farm = value.find("farm") != std::string::npos;
    } else if (key == "--traced") {
      a.traced = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.direct || a.farm))
    throw std::invalid_argument("need --workload, --seed and --passes");
  if (a.farm && a.out_dir.empty()) throw std::invalid_argument("the farm pass needs --out-dir");
  return a;
}

int run(const Args& args) {
  if (args.traced) obs::enable();
  Workload w = make_workload(args.workload, args.seed);
  w.base.trace = args.traced;

  // Set-up, repeated (at least once, until 0.5 s or 25 repetitions) so its
  // median is steady: expansion and validation of the variant list, plus
  // scenario::build when a single variant runs directly.
  const bool single = w.axes.empty();
  std::vector<double> setup_s;
  std::vector<scenario::ScenarioSpec> variants;
  scenario::BuiltScenario built;
  const auto setup_t0 = Clock::now();
  do {
    obs::Span span("bench", "bench.setup");
    const auto t0 = Clock::now();
    variants = scenario::expand_sweeps(w.base, w.axes);
    if (single && args.direct) built = scenario::build(variants.front());
    setup_s.push_back(seconds_between(t0, Clock::now()));
  } while (setup_s.size() < 25 && seconds_between(setup_t0, Clock::now()) < 0.5);

  Json out = Json::object();
  out.set("workload", args.workload);
  out.set("seed", args.seed);
  out.set("traced", args.traced);
  out.set("setup_s", number_array(setup_s));
  if (args.farm) out.set("farm", run_farm_pass(variants, w.jobs, args.out_dir));
  if (args.direct) {
    Json direct = direct_json(run_direct(variants, w.jobs, single ? &built : nullptr));
    if (single) direct.set("build_s", median(setup_s));
    out.set("direct", std::move(direct));
  }
  if (args.traced) {
    Json spans = Json::object();
    for (const obs::SpanStat& s : obs::aggregate_spans()) {
      Json j = Json::object();
      j.set("count", s.count);
      j.set("total_s", static_cast<double>(s.total_ns) * 1e-9);
      j.set("self_s", static_cast<double>(s.self_ns) * 1e-9);
      spans.set(s.name, std::move(j));
    }
    out.set("spans", std::move(spans));
    out.set("dropped_events", obs::dropped_events());
  }
  out.set("rss_mib", peak_rss_mib());
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
