#pragma once

// Shared harness for the figure/table reproduction binaries.
//
// Every bench builds the paper's system setup (§VI-A): N workers (default
// 100) with kappa ~ U[1,10] compute heterogeneity, label-skew partition,
// sigma0^2 = 1 W noise, E_i = 10 J per-round energy budget, B = 1 MHz OMA
// uplink, R = 1024 sub-channels for AirComp — then runs the requested
// mechanisms and prints the series/rows the corresponding paper figure
// reports. Model sizes are scaled down from the paper's so the whole grid
// runs on a 2-core CPU box; the scaling is documented per bench and in
// docs/BENCHMARKS.md.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "fl/mechanisms.hpp"
#include "ml/zoo.hpp"
#include "scenario/presets.hpp"
#include "scenario/spec.hpp"
#include "util/table.hpp"

namespace airfedga::bench {

/// Shared `--flag=value` parser for every bench binary: consistent
/// `--help` output (exit 0) and unknown-argument errors (exit 2) instead
/// of each main re-parsing argv by hand.
///
///   bench::FlagParser flags("Fig. 10 reproduction: ...");
///   flags.add("threads", "lane counts for the engine sweep, e.g. 1,2,4");
///   if (auto ec = flags.parse(argc, argv)) return *ec;
///   if (const std::string* v = flags.get("threads")) ...
class FlagParser {
 public:
  explicit FlagParser(std::string description) : description_(std::move(description)) {}

  /// Registers `--name=<value>` with a help line.
  void add(std::string name, std::string help) {
    flags_.push_back({std::move(name), std::move(help), std::nullopt});
  }

  /// Parses argv. Returns the exit code main should return (0 for
  /// `--help`, 2 for an unknown/malformed argument, with a message on the
  /// right stream), or nullopt when the program should continue.
  std::optional<int> parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_help(stdout, argv[0]);
        return 0;
      }
      bool matched = false;
      for (auto& f : flags_) {
        const std::string prefix = "--" + f.name + "=";
        if (arg.rfind(prefix, 0) == 0) {
          f.value = arg.substr(prefix.size());
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::fprintf(stderr, "unknown argument: %s\n\n", arg.c_str());
        print_help(stderr, argv[0]);
        return 2;
      }
    }
    return std::nullopt;
  }

  /// The value of `--name=...`, or nullptr when the flag was not given.
  [[nodiscard]] const std::string* get(const std::string& name) const {
    for (const auto& f : flags_)
      if (f.name == name && f.value) return &*f.value;
    return nullptr;
  }

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::optional<std::string> value;
  };

  void print_help(std::FILE* out, const char* argv0) const {
    std::fprintf(out, "%s\n\nusage: %s [--help]", description_.c_str(), argv0);
    for (const auto& f : flags_) std::fprintf(out, " [--%s=<value>]", f.name.c_str());
    std::fprintf(out, "\n");
    for (const auto& f : flags_)
      std::fprintf(out, "  --%-12s %s\n", (f.name + "=").c_str(), f.help.c_str());
  }

  std::string description_;
  std::vector<Flag> flags_;
};

/// Runs every mechanism of a built scenario serially and returns the
/// metric series in mechanism order (the registry is the single source of
/// truth for the setup; the bench only presents the results).
inline std::vector<fl::Metrics> run_all(scenario::BuiltScenario& built) {
  std::vector<fl::Metrics> runs;
  runs.reserve(built.mechanisms.size());
  for (auto& m : built.mechanisms) runs.push_back(m->run(built.cfg));
  return runs;
}

/// Prints each run's bit-identical metrics digest. `airfedga_cli run
/// <preset>` reports the same digests at equal seeds/threads, which is the
/// cross-binary reproducibility check the CI regression leg relies on.
inline void print_digests(const std::vector<std::string>& names,
                          const std::vector<fl::Metrics>& runs) {
  std::printf("\n--- metrics digests (cross-check: airfedga_cli run <preset>) ---\n");
  for (std::size_t i = 0; i < runs.size(); ++i)
    std::printf("%-12s %s\n", names[i].c_str(), runs[i].digest().c_str());
}

/// Prints the one-line engine summary every figure bench shares: the
/// EngineStats wall clocks plus the observability counters (lane-pool
/// activity, warm/cold worker reuse) from the run's metrics snapshot —
/// the same values `airfedga_cli` serializes into results.jsonl.
inline void print_engine_summary(const std::vector<std::string>& names,
                                 const std::vector<fl::Metrics>& runs) {
  std::printf("\n--- engine summary (wall-clock; run-to-run variable) ---\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const fl::EngineStats& es = runs[i].engine_stats();
    std::uint64_t tasks = 0, warm = 0, cold = 0;
    for (const auto& [name, value] : runs[i].obs_snapshot().counters) {
      if (name == "pool.tasks") tasks = value;
      if (name == "pool.warm_hits") warm = value;
      if (name == "pool.cold_replays") cold = value;
    }
    std::printf("%-12s barriers=%zu barrier_s=%.2f evals=%zu eval_s=%.2f pool_tasks=%llu "
                "warm_hits=%llu cold_replays=%llu\n",
                names[i].c_str(), es.barriers, es.barrier_seconds, es.evals, es.eval_seconds,
                static_cast<unsigned long long>(tasks), static_cast<unsigned long long>(warm),
                static_cast<unsigned long long>(cold));
  }
}

/// Canonical experiment configuration builder.
struct Experiment {
  data::Dataset train;
  data::Dataset test;
  fl::FLConfig cfg;

  Experiment(data::TrainTest&& tt, std::size_t workers, ml::ModelFactory factory,
             std::uint64_t seed = 42) {
    train = std::move(tt.train);
    test = std::move(tt.test);
    util::Rng rng(seed);
    cfg.train = &train;
    cfg.test = &test;
    cfg.partition = data::partition_label_skew(train, workers, rng);
    cfg.model_factory = std::move(factory);
    cfg.cluster.base_seconds = 6.0;
    cfg.cluster.seed = seed + 1;
    cfg.fading.seed = seed + 2;
    cfg.seed = seed;
  }
};

/// Samples a recorded series onto a fixed virtual-time grid (last point at
/// or before each grid time), mirroring the paper's loss/accuracy curves.
struct GridPoint {
  double time;
  double loss;
  double accuracy;
};

inline std::vector<GridPoint> sample_grid(const fl::Metrics& m, double step, double horizon) {
  std::vector<GridPoint> out;
  const auto& pts = m.points();
  std::size_t i = 0;
  double last_loss = pts.empty() ? 0.0 : pts.front().loss;
  double last_acc = pts.empty() ? 0.0 : pts.front().accuracy;
  for (double t = step; t <= horizon + 1e-9; t += step) {
    while (i < pts.size() && pts[i].time <= t) {
      last_loss = pts[i].loss;
      last_acc = pts[i].accuracy;
      ++i;
    }
    out.push_back({t, last_loss, last_acc});
  }
  return out;
}

/// Prints the Fig. 3-6 style two-panel series for several mechanisms.
inline void print_curves(const std::string& title,
                         const std::vector<std::string>& names,
                         const std::vector<fl::Metrics>& runs, double step, double horizon) {
  std::printf("\n=== %s ===\n", title.c_str());
  util::Table loss_table([&] {
    std::vector<std::string> h = {"time(s)"};
    for (const auto& n : names) h.push_back(n + " loss");
    for (const auto& n : names) h.push_back(n + " acc");
    return h;
  }());
  std::vector<std::vector<GridPoint>> grids;
  grids.reserve(runs.size());
  for (const auto& r : runs) grids.push_back(sample_grid(r, step, horizon));
  for (std::size_t row = 0; row < grids.front().size(); ++row) {
    std::vector<std::string> cells = {util::Table::fmt(grids[0][row].time, 0)};
    for (const auto& g : grids) cells.push_back(util::Table::fmt(g[row].loss, 4));
    for (const auto& g : grids) cells.push_back(util::Table::fmt(g[row].accuracy, 4));
    loss_table.add_row(std::move(cells));
  }
  loss_table.print(std::cout);
}

/// Prints the §VI-B1-style summary: time to each accuracy target plus the
/// headline speedups of the last mechanism (Air-FedGA by convention) over
/// the others.
inline void print_time_to_accuracy(const std::vector<std::string>& names,
                                   const std::vector<fl::Metrics>& runs,
                                   const std::vector<double>& targets) {
  util::Table t([&] {
    std::vector<std::string> h = {"mechanism"};
    for (double target : targets) h.push_back("t@" + util::Table::fmt(100 * target, 0) + "%(s)");
    h.push_back("final acc");
    return h;
  }());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::vector<std::string> cells = {names[i]};
    for (double target : targets) {
      const double tt = runs[i].time_to_accuracy(target);
      cells.push_back(tt < 0 ? "-" : util::Table::fmt(tt, 0));
    }
    cells.push_back(util::Table::fmt(runs[i].final_accuracy(), 4));
    t.add_row(std::move(cells));
  }
  t.print(std::cout);

  if (runs.size() >= 2 && !targets.empty()) {
    const double target = targets.front();
    const double ours = runs.back().time_to_accuracy(target);
    if (ours > 0) {
      for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
        const double other = runs[i].time_to_accuracy(target);
        if (other > 0)
          std::printf("%s reaches %.0f%% %.1f%% faster than %s (%.0fs vs %.0fs)\n",
                      names.back().c_str(), 100 * target, 100.0 * (other - ours) / other,
                      names[i].c_str(), ours, other);
      }
    }
  }
}

/// CSV dump directory for post-processing/plotting.
inline std::string results_dir() {
  std::filesystem::create_directories("bench_results");
  return "bench_results";
}

inline void dump_csv(const std::string& stem, const std::vector<std::string>& names,
                     const std::vector<fl::Metrics>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::string name = names[i];
    for (auto& c : name)
      if (c == ' ' || c == '/') c = '_';
    runs[i].write_csv(results_dir() + "/" + stem + "_" + name + ".csv");
  }
}

}  // namespace airfedga::bench
