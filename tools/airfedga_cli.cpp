// airfedga — unified scenario CLI.
//
// Runs declarative experiment scenarios (JSON specs or registered presets)
// through the full mechanism stack and writes structured results (JSONL +
// CSV, with schema version, config hash, git describe, engine stats, and
// the bit-identical metrics digest). See docs/SCENARIOS.md for the spec
// schema and the scenarios/ study convention.
//
//   airfedga_cli run <scenario.json|preset|->  [--seed=S] [--threads=T[,T2,...]]
//                                              [--time-budget=X] [--jobs=N]
//                                              [--sweep path=v1,v2,...]...
//                                              [--out=DIR] [--no-timing]
//                                              [--trace[=PATH]]
//   airfedga_cli run-dir <directory>           [same options]
//   airfedga_cli list
//   airfedga_cli validate <scenario.json|->
//   airfedga_cli dump <preset>
//
// `run -` / `validate -` read the scenario JSON from stdin, so
//   airfedga_cli dump fig04_cnn_mnist | airfedga_cli run -
// reproduces the fig04 bench's metrics digests exactly (equal seeds and
// threads). A multi-valued --threads list switches run into the engine
// determinism sweep: every lane count must produce bit-identical metrics,
// and a divergence exits nonzero. --jobs=N runs independent sweep variants
// (or directory studies) concurrently; results are exported in variant
// order, so the output files are byte-stable for every N.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "scenario/cli.hpp"
#include "scenario/manifest.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"

namespace {

using namespace airfedga;

constexpr const char* kUsage = R"(airfedga_cli — declarative Air-FedGA scenario runner

usage:
  airfedga_cli run <scenario.json|preset|->  [options]   run a scenario
  airfedga_cli run-dir <directory>           [options]   run every .json study in a directory
  airfedga_cli merge <shard-dir>... --out=DIR            merge --shard farm directories
  airfedga_cli list                                      list registered presets
  airfedga_cli validate <scenario.json|->                check a spec, report all problems
  airfedga_cli dump <preset>                             print a preset's JSON to stdout
  airfedga_cli --help

run / run-dir options:
  --seed=S               override run.seed
  --threads=T[,T2,...]   override run.threads; a list runs every lane count and
                         verifies bit-identical metrics (exit 1 on divergence)
  --time-budget=X        override run.time_budget (virtual seconds)
  --jobs=N               run up to N independent variants concurrently; the
                         global lane budget is split across in-flight variants
                         and results are exported in variant order (byte-stable
                         output for every N)
  --sweep path=v1,v2,... grid over a spec field (repeatable; cartesian product),
                         e.g. --sweep mechanisms.0.xi=0,0.1,0.3 --sweep run.seed=1,2
  --out=DIR              results directory (default: scenario_results); writes
                         results.jsonl, summary.csv, points/*.csv
  --no-timing            omit wall-clock fields from results, making the output
                         byte-identical across runs, --jobs values, lane
                         counts and glibc builds
  --trace[=PATH]         collect execution spans/metrics and write a Chrome
                         trace-event JSON (default: <out-dir>/trace.json) plus a
                         per-phase wall-time report; tracing is read-only, so
                         digests match the untraced run bit for bit

crash-safe farm options (run / run-dir):
  --resume               skip variants the out-dir's manifest records as done
                         (with an intact stash); everything else re-runs. A
                         resumed batch re-emits results.jsonl / summary.csv /
                         points/* byte-identically to an uninterrupted run
                         (use --no-timing for cross-run comparisons)
  --retries=K            retry a throwing/timed-out variant up to K extra times
                         (bounded exponential backoff) before quarantining it
                         as failed; other variants keep running (exit 3)
  --variant-timeout=S    wall-clock watchdog: cancel a variant attempt after S
                         seconds (counts as a failed attempt)
  --shard=i/N            run only variants with index mod N == i-1 (1-based);
                         combine the shard out-dirs with `merge`
  --no-progress          suppress per-variant progress/ETA lines on stderr
  --fault=SPEC           arm a deterministic fault point (repeatable), e.g.
                         --fault=after_variant:3 or --fault=mid_write:results;
                         SPEC is point[:arg][:action], action kill (default,
                         exit 86) | throw | throw_once. AIRFEDGA_FAULT in the
                         environment arms comma-separated specs the same way.
                         Testing/CI only — nothing fires when unarmed

SIGINT/SIGTERM finish journalling in-flight variants and exit 130; the batch
is then resumable with --resume. Exit codes: 0 ok, 1 determinism divergence,
2 usage/setup error, 3 variants quarantined or merge incomplete, 130
interrupted.

Scenario files may carry a top-level "sweeps" object — a checked-in study:
  "sweeps": { "mechanisms.0.xi": [0.1, 0.3], "run.seed": [1, 2] }

`-` reads the scenario JSON from stdin:
  airfedga_cli dump fig04_cnn_mnist | airfedga_cli run -
)";

int fail(const std::string& message) {
  std::fprintf(stderr, "airfedga_cli: %s\n", message.c_str());
  return 2;
}

/// Summary table from assembled farm records (wall_s is "-" under
/// --no-timing).
void print_record_summary(const std::vector<scenario::Json>& records) {
  util::Table t({"scenario", "mechanism", "threads", "rounds", "virtual_s", "final_acc",
                 "digest", "bit_identical", "wall_s"});
  for (const auto& rec : records) {
    const scenario::Json* bi = rec.find("bit_identical");
    const scenario::Json* wall = rec.find("wall_seconds");
    t.add_row({rec.at("scenario").as_string(), rec.at("mechanism").as_string(),
               std::to_string(static_cast<std::size_t>(rec.at("threads").as_number())),
               std::to_string(static_cast<std::size_t>(rec.at("rounds").as_number())),
               util::Table::fmt(rec.at("virtual_seconds").as_number(), 0),
               util::Table::fmt(rec.at("final_accuracy").as_number(), 4),
               rec.at("digest").as_string(),
               bi != nullptr ? (bi->as_bool() ? "yes" : "NO") : "-",
               wall != nullptr ? util::Table::fmt(wall->as_number(), 2) : "-"});
  }
  t.print(std::cout);
}

/// Shared reporting/exit-code tail of the farm path (run/run-dir and merge).
int report_farm(const scenario::cli::RunArgs& ra, const scenario::FarmResult& outcome) {
  if (outcome.interrupted) {
    std::fprintf(stderr,
                 "airfedga_cli: interrupted — %zu variant(s) done, %zu failed; finish with "
                 "--resume --out=%s\n",
                 outcome.completed, outcome.failed, ra.out_dir.c_str());
    return 130;
  }
  print_record_summary(outcome.records);
  if (outcome.resumed_skips > 0)
    std::printf("\nresume: skipped %zu already-done variant(s)\n", outcome.resumed_skips);
  if (outcome.retries > 0) std::printf("retries: %zu extra attempt(s) spent\n", outcome.retries);
  std::printf("\nwrote %s/results.jsonl, %s/summary.csv (schema v%d, manifest v%d)\n",
              ra.out_dir.c_str(), ra.out_dir.c_str(), scenario::kResultsSchemaVersion,
              scenario::kManifestVersion);
  for (const auto& st : outcome.statuses)
    if (st.state == scenario::VariantStatus::State::kFailed)
      std::fprintf(stderr, "airfedga_cli: quarantined variant %zu %s after %zu attempt(s): %s\n",
                   st.variant, st.name.c_str(), st.attempts, st.error.c_str());
  if (!outcome.all_identical) {
    std::fprintf(stderr,
                 "airfedga_cli: determinism violation — metrics diverged across lane counts\n");
    return 1;
  }
  return outcome.failed > 0 ? 3 : 0;
}

/// Runs the full variant list (expanded from scenario files/presets for
/// run, directory studies for run-dir) through the crash-safe farm
/// (durable manifest + per-variant stashes, resumable; possibly
/// --jobs-parallel), exports, and reports. Shared tail of cmd_run /
/// cmd_run_dir.
int run_variants(const scenario::cli::RunArgs& ra,
                 const std::vector<scenario::ScenarioSpec>& variants) {
  // Execution-only switch: obs::enable() changes what is *observed*, never
  // what runs, so the variants keep their config hashes and digests. Specs
  // can opt in independently via run.trace.
  if (ra.trace) obs::enable();

  scenario::WriteOptions wo;
  wo.timing = ra.timing;
  scenario::FarmOptions fo;
  fo.jobs = ra.jobs;
  fo.threads = ra.threads;
  fo.retries = ra.retries;
  fo.variant_timeout = ra.variant_timeout;
  fo.resume = ra.resume;
  fo.shard_index = ra.shard_index;
  fo.shard_count = ra.shard_count;
  fo.progress = ra.progress && variants.size() > 1;
  const int rc = report_farm(ra, scenario::run_farm(variants, ra.out_dir, ra.overrides, fo, wo));

  // Trace flush: every Driver has joined its lane pool by now and the
  // global pool is idle, so the ring buffers are quiescent.
  if (obs::enabled()) {
    const std::string path =
        ra.trace_path.empty() ? ra.out_dir + "/trace.json" : ra.trace_path;
    std::ofstream trace_out(path, std::ios::trunc);
    if (!trace_out) return fail("cannot open trace output " + path);
    obs::write_chrome_json(trace_out);
    std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n\n", path.c_str());
    obs::print_report(std::cout);
  }
  return rc;
}

int cmd_run(const scenario::cli::RunArgs& ra) {
  if (ra.sources.size() != 1)
    return fail("run: need exactly one scenario (preset name, file, or `-` for stdin)");
  scenario::cli::Study study = scenario::cli::load_study(ra.sources[0]);
  study.spec.validate();

  // Checked-in study axes expand first, CLI --sweep axes after them.
  std::vector<scenario::SweepAxis> axes = study.sweeps;
  axes.insert(axes.end(), ra.sweeps.begin(), ra.sweeps.end());
  return run_variants(ra, expand_sweeps(study.spec, axes));
}

int cmd_run_dir(const scenario::cli::RunArgs& ra) {
  if (ra.sources.size() != 1) return fail("run-dir: need exactly one scenario directory");
  const std::vector<std::string> files = scenario::cli::list_scenario_files(ra.sources[0]);

  std::vector<scenario::ScenarioSpec> variants;
  for (const auto& file : files) {
    scenario::cli::Study study = scenario::cli::load_study(file);
    study.spec.validate();
    std::vector<scenario::SweepAxis> axes = study.sweeps;
    axes.insert(axes.end(), ra.sweeps.begin(), ra.sweeps.end());
    std::vector<scenario::ScenarioSpec> expanded = expand_sweeps(study.spec, axes);
    std::printf("%s: %zu variant(s)\n", file.c_str(), expanded.size());
    for (auto& v : expanded) variants.push_back(std::move(v));
  }
  return run_variants(ra, variants);
}

int cmd_merge(const scenario::cli::RunArgs& ra) {
  if (ra.sources.empty())
    return fail("merge: need at least one shard directory (a run --shard out-dir)");
  scenario::WriteOptions wo;
  wo.timing = ra.timing;
  const scenario::FarmResult outcome = scenario::merge_results(ra.out_dir, ra.sources, wo);

  std::size_t missing = 0;
  for (const auto& st : outcome.statuses)
    if (st.state != scenario::VariantStatus::State::kDone) ++missing;
  print_record_summary(outcome.records);
  std::printf("\nmerged %zu variant(s) from %zu shard dir(s) into %s\n", outcome.completed,
              ra.sources.size(), ra.out_dir.c_str());
  if (missing > 0) {
    std::fprintf(stderr,
                 "airfedga_cli: merge incomplete — %zu variant index(es) missing from every "
                 "shard (a shard crashed or was not merged); the merged files cover only the "
                 "present variants\n",
                 missing);
    return 3;
  }
  if (!outcome.all_identical) {
    std::fprintf(stderr,
                 "airfedga_cli: determinism violation — metrics diverged across lane counts\n");
    return 1;
  }
  return 0;
}

int cmd_list() {
  util::Table t({"preset", "workers", "mechanisms", "description"});
  for (const auto& name : scenario::preset_names()) {
    const auto& s = scenario::preset(name);
    std::string mechs;
    for (std::size_t i = 0; i < s.mechanisms.size(); ++i)
      mechs += (i ? "+" : "") + s.mechanisms[i].kind;
    t.add_row({name, std::to_string(s.partition.workers), mechs, s.description});
  }
  t.print(std::cout);
  return 0;
}

int cmd_validate(const std::string& source) {
  try {
    scenario::cli::Study study = scenario::cli::load_study(source);
    study.spec.validate();
    scenario::build(study.spec);  // also exercises dataset/model/partition construction
    // A study's sweep grid must expand cleanly too (paths resolve, every
    // variant validates) — that is what run would execute.
    const auto variants = expand_sweeps(study.spec, study.sweeps);
    std::printf("%s: OK (%zu workers, %zu mechanism(s), %zu variant(s), config hash %s)\n",
                source.c_str(), study.spec.partition.workers, study.spec.mechanisms.size(),
                variants.size(), scenario::config_hash(study.spec).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: INVALID — %s\n", source.c_str(), e.what());
    return 1;
  }
}

int cmd_dump(const std::string& name) {
  // Pure JSON on stdout so the output pipes straight into `run -`.
  std::printf("%s\n", scenario::preset(name).to_json().dump(2).c_str());
  return 0;
}

// SIGINT/SIGTERM request a cooperative farm stop: in-flight variants cancel
// at their next event, the manifest keeps its journalled state, and main
// exits 130 so the batch can be finished with --resume. A store to an
// atomic flag is all the handler does (async-signal-safe).
extern "C" void handle_stop_signal(int) { scenario::farm_request_stop(); }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    std::printf("%s", kUsage);
    return args.empty() ? 2 : 0;
  }

  try {
    const std::string cmd = args[0];
    std::vector<std::string> rest(args.begin() + 1, args.end());

    // Deterministic fault injection (testing/CI): nothing fires unless a
    // spec is armed via the environment or --fault.
    util::fault::arm_from_env();

    if (cmd == "run" || cmd == "run-dir") {
      const scenario::cli::RunArgs ra = scenario::cli::parse_run_args(rest);
      for (const auto& spec : ra.faults) util::fault::arm(spec);
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);
      return cmd == "run" ? cmd_run(ra) : cmd_run_dir(ra);
    }
    if (cmd == "merge") return cmd_merge(scenario::cli::parse_run_args(rest));
    if (cmd == "list") {
      if (!rest.empty()) return fail("list: takes no arguments");
      return cmd_list();
    }
    if (cmd == "validate") {
      if (rest.size() != 1) return fail("validate: need exactly one scenario (file or `-`)");
      return cmd_validate(rest[0]);
    }
    if (cmd == "dump") {
      if (rest.size() != 1) return fail("dump: need exactly one preset name");
      return cmd_dump(rest[0]);
    }
    return fail("unknown command \"" + cmd +
                "\" (run | run-dir | merge | list | validate | dump; see --help)");
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
