// Fig. 10 reproduction: scalability in the number of workers N for all
// five mechanisms. Left panel: average single-round time (log scale in the
// paper). Right panel: total training time to a stable 80% accuracy.
//
// Paper shape: FedAvg's round time grows linearly with N (serialized OMA
// uploads); Air-FedAvg/Dynamic stay flat (AirComp); TiFL and Air-FedGA
// *shrink* with N (more groups -> more frequent asynchronous updates).
// Total time: OMA mechanisms degrade with N, AirComp-async mechanisms
// improve, and the gap widens with N.
//
// The workloads live in the `fig10_nsweep` (N sweep, this default mode)
// and `fig10_scalability` (engine thread sweep) scenario presets
// (src/scenario/presets.cpp); this bench rescales the nsweep preset's
// workers/train_samples/tiers per N. Scale-down vs. paper: MLP-64 on the
// MNIST-like dataset. The MLP's 55k parameters keep the OMA-vs-AirComp
// upload asymmetry realistic (1.76s/worker OMA vs 3.9ms AirComp).
//
// Engine mode: `--threads=<list>` (e.g. --threads=4 or --threads=1,2,4)
// switches to the execution-engine sweep instead: it runs the
// `fig10_scalability` preset at each training-lane count (a 1-lane
// baseline is always included), reports wall-clock speedup plus
// per-mechanism barrier-stall and evaluation wall time (the two serial
// fractions the deadline scheduler and sharded evaluate attack), and
// verifies that the recorded metrics are bit-identical across lane
// counts. `airfedga_cli run fig10_scalability --threads=<list>` is the
// declarative equivalent (same digests, JSONL output).

#include <algorithm>
#include <string>

#include "common.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace airfedga;

/// Parses "4" / "1,2,4" into lane counts. Returns false (with a message on
/// stderr) on anything that isn't a comma-separated list of integers >= 1.
bool parse_thread_list(const std::string& list, std::vector<std::size_t>& counts) {
  if (list.empty()) {
    std::fprintf(stderr, "--threads: expected a comma-separated list of lane counts >= 1\n");
    return false;
  }
  for (std::size_t pos = 0; pos <= list.size();) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string tok = list.substr(pos, comma - pos);
    if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos ||
        tok.size() > 4 || std::stoul(tok) == 0) {
      std::fprintf(stderr, "--threads: bad lane count '%s' (want an integer in [1, 9999])\n",
                   tok.c_str());
      return false;
    }
    const std::size_t v = std::stoul(tok);
    if (std::find(counts.begin(), counts.end(), v) == counts.end()) counts.push_back(v);
    pos = comma + 1;
  }
  return true;
}

int run_thread_sweep(const std::string& list) {
  std::vector<std::size_t> counts = {1};  // the serial baseline anchors speedup
  if (!parse_thread_list(list, counts)) return 2;

  const scenario::ScenarioSpec& spec = scenario::preset("fig10_scalability");
  const auto sweep = scenario::run_thread_sweep(spec, counts);

  util::Table t({"threads", "wall(s)", "speedup vs 1", "bit-identical"});
  // Per-(threads, mechanism) engine instrumentation: wall time the
  // simulation thread spent blocked at training barriers and inside
  // evaluation. Deadline scheduling shrinks the former; sharded evaluation
  // the latter.
  util::Table engine_t({"threads", "mechanism", "barrier-stall(s)", "eval(s)"});
  double baseline_wall = 0.0;
  for (std::size_t k = 0; k < sweep.by_threads.size(); ++k) {
    const auto& result = sweep.by_threads[k];
    double wall = 0.0;
    bool identical = true;
    for (const auto& run : result.runs) {
      wall += run.wall_seconds;
      identical = identical && run.bit_identical.value_or(true);
      const auto& es = run.metrics.engine_stats();
      engine_t.add_row({util::Table::fmt_int(static_cast<long long>(result.spec.threads)),
                        run.mechanism, util::Table::fmt(es.barrier_seconds, 3),
                        util::Table::fmt(es.eval_seconds, 3)});
    }
    if (k == 0) {
      baseline_wall = wall;
      t.add_row({util::Table::fmt_int(static_cast<long long>(result.spec.threads)),
                 util::Table::fmt(wall, 2), "1.00", "baseline"});
    } else {
      t.add_row({util::Table::fmt_int(static_cast<long long>(result.spec.threads)),
                 util::Table::fmt(wall, 2), util::Table::fmt(baseline_wall / wall, 2),
                 identical ? "yes" : "NO"});
    }
  }

  std::printf("=== Execution-engine sweep: FedAvg + TiFL + Air-FedGA, N=40, MLP-64 ===\n");
  t.print(std::cout);
  t.write_csv(bench::results_dir() + "/fig10_thread_sweep.csv");
  std::printf("\n=== Engine stats: simulation-thread barrier stalls and eval wall time ===\n");
  engine_t.print(std::cout);
  engine_t.write_csv(bench::results_dir() + "/fig10_engine_stats.csv");
  if (!sweep.all_identical) {
    std::printf("ERROR: metrics diverged across lane counts (determinism violation)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace airfedga;

  bench::FlagParser flags("Fig. 10: scalability in N (default) or engine thread sweep");
  flags.add("threads", "lane counts for the engine sweep, e.g. 4 or 1,2,4");
  if (auto ec = flags.parse(argc, argv)) return *ec;
  if (const std::string* list = flags.get("threads")) return run_thread_sweep(*list);

  const double target = 0.80;

  util::Table round_table(
      {"N", "FedAvg", "Air-FedAvg", "Dynamic", "TiFL", "Air-FedGA"});
  util::Table total_table(
      {"N", "FedAvg", "Air-FedAvg", "Dynamic", "TiFL", "Air-FedGA"});

  for (std::size_t workers : {20UL, 40UL, 60UL, 80UL, 100UL}) {
    scenario::ScenarioSpec spec = scenario::preset("fig10_nsweep");
    spec.partition.workers = workers;
    spec.dataset.train_samples = std::max<std::size_t>(3000, workers * 50);
    // Early stop tracks the reported target (re-derives the preset value).
    spec.stop_at_accuracy = target + 0.01;
    for (auto& m : spec.mechanisms)
      if (m.kind == "tifl") m.tiers = std::max<std::size_t>(2, workers / 15);

    auto built = scenario::build(spec);
    const std::vector<fl::Metrics> runs = bench::run_all(built);

    std::vector<std::string> round_cells = {util::Table::fmt_int(static_cast<long long>(workers))};
    std::vector<std::string> total_cells = round_cells;
    for (const auto& r : runs) {
      round_cells.push_back(util::Table::fmt(r.average_round_time(), 2));
      const double tt = r.time_to_accuracy(target);
      total_cells.push_back(tt < 0 ? "-" : util::Table::fmt(tt, 0));
    }
    round_table.add_row(std::move(round_cells));
    total_table.add_row(std::move(total_cells));
  }

  std::printf("=== Fig. 10 (left): average single-round time (s) vs N ===\n");
  round_table.print(std::cout);
  round_table.write_csv(bench::results_dir() + "/fig10_round_time.csv");
  std::printf("\n=== Fig. 10 (right): total training time (s) to %.0f%% accuracy vs N ===\n",
              100 * target);
  total_table.print(std::cout);
  total_table.write_csv(bench::results_dir() + "/fig10_total_time.csv");
  return 0;
}
