#include "scenario/runner.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "fl/driver.hpp"
#include "obs/metrics.hpp"
#include "scenario/manifest.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::scenario {

// ------------------------------------------------------------ sweep paths --

void json_set_path(Json& root, const std::string& path, Json value) {
  if (path.empty()) throw std::invalid_argument("sweep path: must not be empty");
  Json* node = &root;
  std::size_t pos = 0;
  std::string walked;
  while (true) {
    const std::size_t dot = path.find('.', pos);
    const std::string seg = path.substr(pos, dot == std::string::npos ? dot : dot - pos);
    if (seg.empty())
      throw std::invalid_argument("sweep path \"" + path + "\": empty segment after \"" +
                                  walked + "\"");
    const bool is_index = std::all_of(seg.begin(), seg.end(),
                                      [](unsigned char c) { return std::isdigit(c); });
    Json* next = nullptr;
    if (is_index && node->is_array()) {
      if (seg.size() > 9)
        throw std::invalid_argument("sweep path \"" + path + "\": index " + seg +
                                    " out of range (array \"" + walked + "\" has " +
                                    std::to_string(node->as_array().size()) + " elements)");
      const std::size_t idx = std::stoul(seg);
      if (idx >= node->as_array().size())
        throw std::invalid_argument("sweep path \"" + path + "\": index " + seg +
                                    " out of range (array \"" + walked + "\" has " +
                                    std::to_string(node->as_array().size()) + " elements)");
      next = &node->as_array()[idx];
    } else if (node->is_object()) {
      next = node->find(seg);
      if (next == nullptr)
        throw std::invalid_argument("sweep path \"" + path + "\": no key \"" + seg + "\" under \"" +
                                    (walked.empty() ? "<root>" : walked) + "\"");
    } else {
      throw std::invalid_argument("sweep path \"" + path + "\": \"" + walked +
                                  "\" is a scalar, cannot descend into \"" + seg + "\"");
    }
    walked = walked.empty() ? seg : walked + "." + seg;
    if (dot == std::string::npos) {
      *next = std::move(value);
      return;
    }
    node = next;
    pos = dot + 1;
  }
}

std::vector<ScenarioSpec> expand_sweeps(const ScenarioSpec& base,
                                        const std::vector<SweepAxis>& axes) {
  for (const auto& axis : axes)
    if (axis.values.empty())
      throw std::invalid_argument("sweep axis \"" + axis.path + "\": needs at least one value");

  std::vector<ScenarioSpec> out;
  std::vector<std::size_t> idx(axes.size(), 0);
  while (true) {
    Json j = base.to_json();
    std::string suffix;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      json_set_path(j, axes[a].path, axes[a].values[idx[a]]);
      suffix += "@" + axes[a].path + "=" + axes[a].values[idx[a]].dump();
    }
    ScenarioSpec variant = ScenarioSpec::from_json(j);
    if (!suffix.empty()) variant.name += suffix;
    variant.validate();
    out.push_back(std::move(variant));

    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
      if (a == 0) return out;
    }
    if (axes.empty()) return out;
  }
}

// -------------------------------------------------------------------- run --

namespace {
ScenarioSpec apply_overrides(ScenarioSpec spec, const RunOverrides& ov) {
  if (ov.seed) spec.seed = *ov.seed;
  if (ov.threads) spec.threads = *ov.threads;
  if (ov.time_budget) spec.time_budget = *ov.time_budget;
  return spec;
}
}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOverrides& ov,
                            std::size_t lane_override, const std::atomic<bool>* cancel) {
  ScenarioResult result;
  result.spec = apply_overrides(spec, ov);
  result.hash = config_hash(result.spec);

  BuiltScenario built = build(result.spec);
  // Execution-only lane cap (lane budget under --jobs). Results are
  // bit-identical for every lane count, so the recorded spec keeps the
  // configured value and only the driver pool shrinks.
  if (lane_override != 0) built.cfg.threads = lane_override;
  built.cfg.cancel = cancel;
  for (std::size_t i = 0; i < built.mechanisms.size(); ++i) {
    MechanismResult run;
    run.mechanism = built.mechanism_names[i];
    const auto t0 = std::chrono::steady_clock::now();
    run.metrics = built.mechanisms[i]->run(built.cfg);
    run.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    result.runs.push_back(std::move(run));
  }
  return result;
}

ThreadSweepResult run_thread_sweep(const ScenarioSpec& spec,
                                   const std::vector<std::size_t>& threads,
                                   const RunOverrides& ov, const std::atomic<bool>* cancel) {
  if (threads.empty())
    throw std::invalid_argument("thread sweep: need at least one lane count");

  ThreadSweepResult sweep;
  for (std::size_t t : threads) {
    RunOverrides o = ov;
    o.threads = t;
    ScenarioResult r = run_scenario(spec, o, 0, cancel);
    const bool is_baseline = sweep.by_threads.empty();
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
      const bool same =
          is_baseline ||
          sweep.by_threads.front().runs[i].metrics.bit_identical(r.runs[i].metrics);
      r.runs[i].bit_identical = same;
      sweep.all_identical = sweep.all_identical && same;
    }
    sweep.by_threads.push_back(std::move(r));
  }
  return sweep;
}

// ----------------------------------------------------------------- export --

std::string git_version() {
  FILE* pipe = ::popen("git describe --always --dirty --tags 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

namespace {
// Filename-safe stem for a scenario/mechanism name. Sweep-suffixed variant
// names carry '@', '=', '.', and sweep string values may carry anything
// (including path separators), so only [A-Za-z0-9_-] passes through —
// everything else becomes '_'. Distinct names can collide after this
// ("a.b" and "a@b" both map to "a_b"); assemble_outputs disambiguates with
// a deterministic counter suffix.
std::string sanitize(std::string s) {
  for (char& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') c = '_';
  return s;
}
}  // namespace

Json result_record(const ScenarioResult& scenario, const MechanismResult& run,
                   const std::string& git, const std::string& points_csv,
                   const WriteOptions& opts) {
  const fl::Metrics& m = run.metrics;
  const fl::EngineStats& es = m.engine_stats();

  Json rec = Json::object();
  rec.set("schema_version", kResultsSchemaVersion);
  rec.set("scenario", scenario.spec.name);
  rec.set("config_hash", scenario.hash);
  rec.set("git", git);
  rec.set("mechanism", run.mechanism);
  rec.set("seed", scenario.spec.seed);
  rec.set("threads", scenario.spec.threads);
  rec.set("digest", m.digest());
  if (run.bit_identical) rec.set("bit_identical", Json(*run.bit_identical));
  rec.set("rounds", m.total_rounds());
  rec.set("virtual_seconds", m.total_time());
  rec.set("final_accuracy", m.final_accuracy());
  rec.set("final_loss", m.final_loss());
  rec.set("total_energy_joules", m.obs_total_energy());
  rec.set("average_round_seconds", m.average_round_time());
  rec.set("max_staleness", m.max_staleness());
  if (opts.timing) rec.set("wall_seconds", run.wall_seconds);

  Json engine = Json::object();
  if (opts.timing) {
    engine.set("barrier_seconds", es.barrier_seconds);
    engine.set("eval_seconds", es.eval_seconds);
    // Cooperation counters depend on when lanes happened to be idle, so
    // they are wall-clock-like (run-to-run variable) and --no-timing must
    // omit them to keep result files byte-comparable.
    engine.set("coop_gemms", es.coop_gemms);
    engine.set("coop_helper_tiles", es.coop_helper_tiles);
  }
  engine.set("barriers", es.barriers);
  engine.set("evals", es.evals);
  rec.set("engine_stats", std::move(engine));

  // Observability snapshot (docs/OBSERVABILITY.md). Timing-gated as a
  // block: some values (pool.busy_ns, coop counts) are wall-clock- or
  // lane-scheduling-dependent and --no-timing output must stay
  // byte-comparable across --jobs/threads.
  if (opts.timing && !m.obs_snapshot().empty()) {
    const obs::MetricsSnapshot& snap = m.obs_snapshot();
    Json counters = Json::object();
    for (const auto& [name, value] : snap.counters) counters.set(name, value);
    Json hists = Json::object();
    for (const auto& h : snap.histograms) {
      Json hj = Json::object();
      Json bounds = Json::array();
      for (double b : h.bounds) bounds.push_back(Json(b));
      Json counts = Json::array();
      for (std::uint64_t c : h.counts) counts.push_back(Json(c));
      hj.set("bounds", std::move(bounds));
      hj.set("counts", std::move(counts));
      hj.set("count", h.count);
      hj.set("sum", h.sum);
      hists.set(h.name, std::move(hj));
    }
    Json metrics = Json::object();
    metrics.set("counters", std::move(counters));
    metrics.set("histograms", std::move(hists));
    rec.set("metrics", std::move(metrics));
  }

  rec.set("points_csv", points_csv);
  return rec;
}

// ------------------------------------------------------------------- farm --

namespace {

namespace fs = std::filesystem;

std::atomic<bool> g_farm_stop{false};

std::string farm_dir(const std::string& out_dir) { return (fs::path(out_dir) / "farm").string(); }

std::string stash_path(const std::string& out_dir, std::size_t variant) {
  char name[32];
  std::snprintf(name, sizeof(name), "variant_%06zu.json", variant);
  return (fs::path(farm_dir(out_dir)) / name).string();
}

void fd_write_all(int fd, const char* data, std::size_t n, const std::string& path) {
  std::size_t off = 0;
  while (off < n) {
    const ::ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("farm: write failed for " + path + ": " +
                               std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(w);
  }
}

/// tmp + fsync + rename, so the destination is either the old file or the
/// complete new one — never a torn mix. `fault_detail` (when non-null and
/// the fault layer is armed) splits the data around a mid_write hit so a
/// kill there leaves a genuinely torn *tmp* file, which recovery ignores.
void write_file_durable(const std::string& path, const std::string& data,
                        const char* fault_detail) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0)
    throw std::runtime_error("farm: cannot open " + tmp + ": " +
                             std::string(std::strerror(errno)));
  try {
    std::size_t split = data.size();
    if (fault_detail != nullptr && util::fault::any_armed()) split = data.size() / 2;
    fd_write_all(fd, data.data(), split, tmp);
    if (split < data.size()) {
      ::fsync(fd);
      util::fault::hit("mid_write", fault_detail);
      fd_write_all(fd, data.data() + split, data.size() - split, tmp);
    }
    if (::fsync(fd) != 0)
      throw std::runtime_error("farm: fsync failed for " + tmp + ": " +
                               std::string(std::strerror(errno)));
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) throw std::runtime_error("farm: cannot rename " + tmp + ": " + ec.message());
  // Persist the rename itself: fsync the containing directory.
  const int dfd = ::open(fs::path(path).parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

inline constexpr int kStashVersion = 1;

/// Serializes one finished variant's results into its durable stash: the
/// final JSONL record (git/points_csv left blank — patched at assembly) and
/// the exact points-CSV bytes per run, so a resumed session can re-emit
/// every output file without re-running the variant.
Json build_stash(std::size_t variant, const std::string& hash, const std::string& name,
                 const std::vector<ScenarioResult>& slot, bool identical,
                 const WriteOptions& wo) {
  Json stash = Json::object();
  stash.set("farm_stash", kStashVersion);
  stash.set("variant", variant);
  stash.set("hash", hash);
  stash.set("name", name);
  stash.set("timing", wo.timing);
  stash.set("identical", identical);
  Json runs = Json::array();
  for (const auto& scenario : slot)
    for (const auto& run : scenario.runs) {
      Json e = Json::object();
      e.set("stem", sanitize(scenario.spec.name) + "_" + sanitize(run.mechanism) + "_t" +
                        std::to_string(scenario.spec.threads));
      e.set("record", result_record(scenario, run, "", "", wo));
      e.set("points", run.metrics.csv_string());
      runs.push_back(std::move(e));
    }
  stash.set("runs", std::move(runs));
  return stash;
}

/// Loads and validates the stash of `variant`; nullopt when it is missing,
/// unreadable, torn, or describes a different variant/version — all of
/// which just mean "re-run the variant".
std::optional<Json> read_stash(const std::string& out_dir, std::size_t variant) {
  std::ifstream in(stash_path(out_dir, variant), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    Json stash = Json::parse(ss.str());
    if (static_cast<int>(stash.at("farm_stash").as_number()) != kStashVersion ||
        static_cast<std::size_t>(stash.at("variant").as_number()) != variant)
      return std::nullopt;
    (void)stash.at("hash").as_string();
    (void)stash.at("timing").as_bool();
    (void)stash.at("runs").as_array();
    return stash;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Assembles results.jsonl / summary.csv / points/ from stashes in variant
/// order — the single output path shared by uninterrupted runs, resumes,
/// and merges, which is what makes resumed output byte-identical. The
/// directory describes exactly these stashes: the row files are replaced
/// and points/ is cleared, so no file can describe a run the row files
/// don't. Returns the patched records in file order.
std::vector<Json> assemble_outputs(const std::string& out_dir, const std::vector<Json>& stashes,
                                   const std::string& git, const WriteOptions& wo) {
  std::error_code ec;
  fs::remove_all(fs::path(out_dir) / "points", ec);
  fs::create_directories(fs::path(out_dir) / "points", ec);
  if (ec)
    throw std::runtime_error("farm: cannot create output directory " + out_dir + ": " +
                             ec.message());

  const std::string jsonl_path = out_dir + "/results.jsonl";
  std::ofstream jsonl(jsonl_path, std::ios::trunc);
  if (!jsonl) throw std::runtime_error("farm: cannot open " + jsonl_path);

  std::vector<std::string> columns = {"schema_version", "scenario",   "mechanism", "seed",
                                      "threads",        "config_hash", "git",      "digest",
                                      "bit_identical",  "rounds",      "virtual_s", "final_acc",
                                      "final_loss",     "energy_J"};
  if (wo.timing) columns.push_back("wall_s");
  util::Table summary(columns);

  // Sanitized stems can collide across distinct run identities (sanitize
  // is lossy). Count identities per stem in variant order and suffix
  // repeats, skipping suffixes an earlier stem already took, so every run
  // keeps its own series file.
  std::unordered_map<std::string, std::size_t> stem_uses;
  std::unordered_set<std::string> claimed;

  std::vector<Json> records;
  bool first_line = true;
  for (const auto& stash : stashes) {
    for (const auto& entry : stash.at("runs").as_array()) {
      const std::string& base = entry.at("stem").as_string();
      std::size_t uses = ++stem_uses[base];
      std::string stem = uses > 1 ? base + "_" + std::to_string(uses) : base;
      while (claimed.count(stem) != 0) {
        uses = ++stem_uses[base];
        stem = base + "_" + std::to_string(uses);
      }
      claimed.insert(stem);
      const std::string points_csv = "points/" + stem + ".csv";

      std::ofstream pf(out_dir + "/" + points_csv, std::ios::binary | std::ios::trunc);
      if (!pf) throw std::runtime_error("farm: cannot open " + out_dir + "/" + points_csv);
      pf << entry.at("points").as_string();
      if (!pf.flush())
        throw std::runtime_error("farm: failed writing " + out_dir + "/" + points_csv);

      Json rec = entry.at("record");
      rec.set("git", git);
      rec.set("points_csv", points_csv);
      jsonl << rec.dump() << '\n';
      if (first_line) {
        first_line = false;
        if (util::fault::any_armed()) {
          jsonl.flush();
          util::fault::hit("mid_write", "results");
        }
      }

      const auto u64 = [&rec](const char* key) {
        return std::to_string(static_cast<std::uint64_t>(rec.at(key).as_number()));
      };
      const Json* bi = rec.find("bit_identical");
      std::vector<std::string> row = {
          u64("schema_version"),
          rec.at("scenario").as_string(),
          rec.at("mechanism").as_string(),
          u64("seed"),
          u64("threads"),
          rec.at("config_hash").as_string(),
          git,
          rec.at("digest").as_string(),
          bi != nullptr ? (bi->as_bool() ? "true" : "false") : "",
          u64("rounds"),
          util::Table::fmt(rec.at("virtual_seconds").as_number(), 0),
          util::Table::fmt(rec.at("final_accuracy").as_number(), 4),
          util::Table::fmt(rec.at("final_loss").as_number(), 4),
          util::Table::fmt(rec.at("total_energy_joules").as_number(), 0)};
      if (wo.timing) row.push_back(util::Table::fmt(rec.at("wall_seconds").as_number(), 2));
      summary.add_row(std::move(row));
      records.push_back(std::move(rec));
    }
  }
  if (!jsonl.flush()) throw std::runtime_error("farm: failed writing " + jsonl_path);
  summary.write_csv(out_dir + "/summary.csv");
  return records;
}

}  // namespace

void farm_request_stop() noexcept { g_farm_stop.store(true, std::memory_order_relaxed); }
bool farm_stop_requested() noexcept { return g_farm_stop.load(std::memory_order_relaxed); }
void farm_clear_stop() noexcept { g_farm_stop.store(false, std::memory_order_relaxed); }

FarmResult run_farm(const std::vector<ScenarioSpec>& variants, const std::string& out_dir,
                    const RunOverrides& ov, const FarmOptions& opt, const WriteOptions& wo) {
  if (opt.shard_count != 0 && (opt.shard_index < 1 || opt.shard_index > opt.shard_count))
    throw std::invalid_argument("run_farm: shard index must be in [1, shard count]");

  const std::size_t n = variants.size();
  FarmResult out;
  out.statuses.resize(n);

  const bool sweep_mode = opt.threads.size() > 1;
  RunOverrides base_ov = ov;
  if (opt.threads.size() == 1) base_ov.threads = opt.threads.front();

  // Variant keys: hash of the spec *after* overrides, so a resumed session
  // invoked with different --seed/--time-budget flags re-runs rather than
  // trusting stale results. In sweep mode the key is the variant-level hash
  // (no lane override applied); per-lane-count hashes live in the records.
  std::vector<std::string> hashes(n);
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = config_hash(apply_overrides(variants[i], base_ov));
    out.statuses[i].variant = i;
    out.statuses[i].name = variants[i].name;
    out.statuses[i].hash = hashes[i];
  }

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec)
    throw std::runtime_error("run_farm: cannot create output directory " + out_dir + ": " +
                             ec.message());
  if (!opt.resume) {
    fs::remove(Manifest::path_in(out_dir), ec);
    fs::remove_all(farm_dir(out_dir), ec);
  }
  fs::create_directories(farm_dir(out_dir), ec);
  if (ec)
    throw std::runtime_error("run_farm: cannot create " + farm_dir(out_dir) + ": " + ec.message());
  Manifest manifest = Manifest::open(out_dir);

  // Resume pass: a variant is satisfied by a prior session iff the manifest
  // journalled it done *and* its stash is intact and matches the key (and
  // this run's timing mode — a --no-timing resume of a timed run re-runs).
  for (std::size_t i = 0; i < n; ++i) {
    if (!opt.resume || manifest.state_of(i, hashes[i]) != "done") continue;
    const std::optional<Json> stash = read_stash(out_dir, i);
    if (!stash || stash->at("hash").as_string() != hashes[i] ||
        stash->at("timing").as_bool() != wo.timing)
      continue;
    out.statuses[i].state = VariantStatus::State::kSkippedResume;
    ++out.resumed_skips;
  }
  obs::global_registry().counter("farm.resumed_skips").add(out.resumed_skips);

  // Work list: owned by this shard and not already satisfied.
  std::vector<std::size_t> worklist;
  for (std::size_t i = 0; i < n; ++i) {
    if (opt.shard_count != 0 && i % opt.shard_count != opt.shard_index - 1) continue;
    if (out.statuses[i].state == VariantStatus::State::kSkippedResume) continue;
    worklist.push_back(i);
  }

  const std::size_t budget = opt.lane_budget != 0
                                 ? opt.lane_budget
                                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t jobs =
      std::min({std::max<std::size_t>(1, opt.jobs), std::max<std::size_t>(1, worklist.size()),
                budget});

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> settled{0};
  std::mutex manifest_mutex;  // Manifest::append is not thread-safe
  std::mutex status_mutex;    // serializes on_status + progress lines
  std::mutex error_mutex;
  std::exception_ptr first_error;  // environmental (stash/manifest I/O), not per-variant
  const auto farm_t0 = std::chrono::steady_clock::now();

  auto settle = [&](const VariantStatus& st) {
    const std::size_t done_count = settled.fetch_add(1, std::memory_order_relaxed) + 1;
    std::scoped_lock lock(status_mutex);
    if (opt.progress) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - farm_t0).count();
      const double eta = done_count > 0
                             ? elapsed / static_cast<double>(done_count) *
                                   static_cast<double>(worklist.size() - done_count)
                             : 0.0;
      const char* what = st.state == VariantStatus::State::kDone     ? "done"
                         : st.state == VariantStatus::State::kFailed ? "FAILED"
                                                                     : "stopped";
      std::fprintf(stderr, "[farm] %s %zu/%zu %s%s%s (eta %.0fs)\n", what, done_count,
                   worklist.size(), st.name.c_str(), st.error.empty() ? "" : ": ",
                   st.error.c_str(), eta);
    }
    if (opt.on_status) opt.on_status(st);
  };

  auto run_variant = [&](std::size_t i) {
    VariantStatus& st = out.statuses[i];
    util::fault::hit("before_variant");
    const std::size_t attempts_allowed = 1 + opt.retries;
    for (std::size_t attempt = 1; attempt <= attempts_allowed; ++attempt) {
      if (g_farm_stop.load(std::memory_order_relaxed)) return;
      {
        std::scoped_lock lock(manifest_mutex);
        manifest.append({i, hashes[i], variants[i].name, "running", attempt, ""});
      }
      if (opt.progress) {
        std::scoped_lock lock(status_mutex);
        std::fprintf(stderr, "[farm] start %s (variant %zu, attempt %zu)\n",
                     variants[i].name.c_str(), i, attempt);
      }

      // Watchdog: cancels the attempt cooperatively when the wall-clock
      // timeout passes or a global stop is requested. The engine throws
      // fl::RunCancelled at its next event.
      std::atomic<bool> cancel{false};
      bool timed_out = false;
      std::mutex wmu;
      std::condition_variable wcv;
      bool wdone = false;
      std::thread watchdog([&] {
        const auto t0 = std::chrono::steady_clock::now();
        std::unique_lock lk(wmu);
        while (!wdone) {
          wcv.wait_for(lk, std::chrono::milliseconds(20));
          if (wdone) return;
          if (g_farm_stop.load(std::memory_order_relaxed))
            cancel.store(true, std::memory_order_relaxed);
          if (opt.variant_timeout > 0.0 &&
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() >
                  opt.variant_timeout) {
            timed_out = true;
            cancel.store(true, std::memory_order_relaxed);
          }
        }
      });
      const auto stop_watchdog = [&] {
        {
          std::scoped_lock lk(wmu);
          wdone = true;
        }
        wcv.notify_all();
        watchdog.join();
      };

      std::string error;
      bool ok = false;
      bool stopping = false;
      try {
        util::fault::hit("variant_run", std::to_string(i));
        std::vector<ScenarioResult> slot;
        bool identical = true;
        if (sweep_mode) {
          ThreadSweepResult sweep = run_thread_sweep(variants[i], opt.threads, base_ov, &cancel);
          identical = sweep.all_identical;
          slot = std::move(sweep.by_threads);
        } else {
          const std::size_t requested =
              base_ov.threads ? *base_ov.threads : variants[i].threads;
          const std::size_t lanes =
              jobs > 1 ? util::lane_budget_share(requested, jobs, opt.lane_budget) : 0;
          slot.push_back(run_scenario(variants[i], base_ov, lanes, &cancel));
        }
        stop_watchdog();
        const Json stash = build_stash(i, hashes[i], variants[i].name, slot, identical, wo);
        write_file_durable(stash_path(out_dir, i), stash.dump() + "\n", "stash");
        {
          std::scoped_lock lock(manifest_mutex);
          manifest.append({i, hashes[i], variants[i].name, "done", attempt, ""});
        }
        util::fault::hit("after_variant");
        // all_identical is recomputed from the stash flags at assembly, so
        // no shared write is needed here.
        (void)identical;
        ok = true;
      } catch (const fl::RunCancelled&) {
        stop_watchdog();
        if (g_farm_stop.load(std::memory_order_relaxed) && !timed_out)
          stopping = true;  // interrupt, not a variant fault: leave "running"
        else
          error = "timeout: exceeded --variant-timeout=" + std::to_string(opt.variant_timeout) +
                  "s (wall clock)";
      } catch (const std::exception& e) {
        stop_watchdog();
        error = e.what();
      }

      if (ok) {
        st.state = VariantStatus::State::kDone;
        st.attempts = attempt;
        settle(st);
        return;
      }
      if (stopping) {
        st.attempts = attempt;
        return;  // stays kNotRun; manifest's dangling "running" re-runs it
      }
      st.attempts = attempt;
      st.error = error;
      if (attempt < attempts_allowed) {
        obs::global_registry().counter("farm.retries").add(1);
        {
          std::scoped_lock lock(status_mutex);
          ++out.retries;
        }
        // Bounded exponential backoff, sliced so a stop request interrupts
        // the wait.
        const double delay = std::min(
            opt.backoff_cap, opt.backoff_base * std::pow(2.0, static_cast<double>(attempt - 1)));
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::duration<double>(std::max(0.0, delay));
        while (std::chrono::steady_clock::now() < until &&
               !g_farm_stop.load(std::memory_order_relaxed))
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
      } else {
        {
          std::scoped_lock lock(manifest_mutex);
          manifest.append({i, hashes[i], variants[i].name, "failed", attempt, error});
        }
        obs::global_registry().counter("farm.quarantined").add(1);
        st.state = VariantStatus::State::kFailed;
        settle(st);
        return;
      }
    }
  };

  auto worker = [&] {
    while (!g_farm_stop.load(std::memory_order_relaxed)) {
      const std::size_t w = next.fetch_add(1, std::memory_order_relaxed);
      if (w >= worklist.size()) return;
      try {
        run_variant(worklist[w]);
      } catch (...) {
        std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        g_farm_stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (jobs == 1) {
    worker();  // serial reference schedule: no extra thread at all
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Tally and decide whether the batch was interrupted: any owned,
  // unsatisfied variant that never settled means a stop cut the run short —
  // output files would be misleadingly partial, so assembly is skipped and
  // the caller resumes instead.
  for (std::size_t i : worklist) {
    switch (out.statuses[i].state) {
      case VariantStatus::State::kDone: ++out.completed; break;
      case VariantStatus::State::kFailed: ++out.failed; break;
      default: out.interrupted = true; break;
    }
  }
  if (out.interrupted) return out;

  // Assemble the output files from the stashes, in variant order. Failed
  // (quarantined) variants are simply absent; non-owned shard variants too.
  std::vector<Json> stashes;
  for (std::size_t i = 0; i < n; ++i) {
    const VariantStatus::State s = out.statuses[i].state;
    if (s != VariantStatus::State::kDone && s != VariantStatus::State::kSkippedResume) continue;
    std::optional<Json> stash = read_stash(out_dir, i);
    if (!stash)
      throw std::runtime_error("run_farm: stash for completed variant " + std::to_string(i) +
                               " is missing or corrupt: " + stash_path(out_dir, i));
    if (!stash->at("identical").as_bool()) out.all_identical = false;
    stashes.push_back(std::move(*stash));
  }
  out.records = assemble_outputs(out_dir, stashes, git_version(), wo);
  return out;
}

FarmResult merge_results(const std::string& out_dir, const std::vector<std::string>& shard_dirs,
                         const WriteOptions& wo) {
  // Union the shards' stashes by variant index. The first shard to supply a
  // variant wins when a duplicate carries the same config hash; a
  // *different* hash for the same index means the shards came from
  // different studies (or different overrides) — refuse rather than emit a
  // silently inconsistent result set.
  std::map<std::size_t, Json> by_variant;
  for (const std::string& dir : shard_dirs) {
    const fs::path fdir = farm_dir(dir);
    std::error_code ec;
    if (!fs::is_directory(fdir, ec))
      throw std::runtime_error("merge_results: " + dir +
                               " is not a farm output directory (no farm/ subdirectory)");
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(fdir))
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      std::ifstream in(file, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      Json stash;
      try {
        stash = Json::parse(ss.str());
        if (static_cast<int>(stash.at("farm_stash").as_number()) != kStashVersion)
          throw std::runtime_error("unsupported stash version");
        (void)stash.at("hash").as_string();
        (void)stash.at("runs").as_array();
      } catch (const std::exception& e) {
        throw std::runtime_error("merge_results: corrupt stash " + file.string() + ": " +
                                 e.what());
      }
      if (stash.at("timing").as_bool() != wo.timing)
        throw std::runtime_error("merge_results: stash " + file.string() + " was written with " +
                                 (wo.timing ? "--no-timing" : "timing") +
                                 "; re-run the merge with matching timing mode");
      const auto idx = static_cast<std::size_t>(stash.at("variant").as_number());
      const std::string hash = stash.at("hash").as_string();
      const auto [it, inserted] = by_variant.emplace(idx, std::move(stash));
      if (!inserted && it->second.at("hash").as_string() != hash)
        throw std::runtime_error("merge_results: shards disagree on variant " +
                                 std::to_string(idx) + " (different config hashes — were the "
                                 "shards run from the same study and overrides?)");
    }
  }

  const std::size_t n = by_variant.empty() ? 0 : by_variant.rbegin()->first + 1;
  FarmResult out;
  out.statuses.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.statuses[i].variant = i;

  // Materialize the union as a normal farm directory (fresh manifest +
  // copied stashes), so the merged directory is itself resumable and a
  // later merge can treat it as a shard.
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec)
    throw std::runtime_error("merge_results: cannot create " + out_dir + ": " + ec.message());
  fs::remove(Manifest::path_in(out_dir), ec);
  fs::remove_all(farm_dir(out_dir), ec);
  fs::create_directories(farm_dir(out_dir), ec);
  if (ec)
    throw std::runtime_error("merge_results: cannot create " + farm_dir(out_dir) + ": " +
                             ec.message());
  Manifest manifest = Manifest::open(out_dir);

  std::vector<Json> stashes;
  for (auto& [idx, stash] : by_variant) {
    const std::string name = stash.at("name").as_string();
    const std::string hash = stash.at("hash").as_string();
    write_file_durable(stash_path(out_dir, idx), stash.dump() + "\n", nullptr);
    manifest.append({idx, hash, name, "done", 1, ""});
    VariantStatus& st = out.statuses[idx];
    st.name = name;
    st.hash = hash;
    st.state = VariantStatus::State::kDone;
    ++out.completed;
    if (!stash.at("identical").as_bool()) out.all_identical = false;
    stashes.push_back(std::move(stash));
  }
  out.records = assemble_outputs(out_dir, stashes, git_version(), wo);
  return out;
}

}  // namespace airfedga::scenario
