// Population scale-out report (Fig. 10 flavor): federated runs at worker
// populations far past the paper's N=100, on the Driver's pooled worker
// state + shared dataset shards. Each grid point
// reports rounds completed, virtual time, wall time, peak RSS (Linux
// VmHWM), and the run's metrics digest — the digest is the cross-check
// that pooling changed *nothing* observable (tests/population_test.cpp
// pins the N=1e5 digests captured with every worker materialized).
//
// The workload is the population_scaling_study scenario shape: a small
// MNIST-like set split into 200 shards, worker i -> shard i % 200, a
// 32-worker sampled cohort per round, softmax model. Memory therefore
// stays bounded by the pool (O(cohort + lanes) replicas), not by N.
//
// Note: VmHWM is a process-wide high-water mark, so each row reports the
// peak over all grid points so far; the grid ascends in N so the largest
// N dominates its own row.
//
// Usage: population_scale [--json=<path>] [--max-workers=<n>]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "scenario/json.hpp"
#include "scenario/spec.hpp"
#include "util/table.hpp"

namespace {

using namespace airfedga;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size in MiB from /proc/self/status (VmHWM), or -1
/// where that interface does not exist.
double peak_rss_mib() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
#endif
  return -1.0;
}

/// The population_scaling_study shape at population `n`.
scenario::ScenarioSpec make_spec(std::size_t n) {
  scenario::ScenarioSpec spec;
  spec.name = "population_scale";
  spec.dataset.kind = "mnist_like";
  spec.dataset.train_samples = 6000;
  spec.dataset.test_samples = 1000;
  spec.model.kind = "softmax";
  spec.model.input_dim = 784;
  spec.model.num_classes = 10;
  spec.partition.kind = "label_skew";
  spec.partition.workers = n;
  spec.partition.shards = 200;  // worker i -> shard i % 200 (30 samples each)
  spec.batch_size = 16;         // < shard size, so every step draws from the RNG
  spec.local_steps = 2;
  spec.learning_rate = 0.05;
  spec.cohort_size = 32;
  spec.time_budget = 1e9;  // rounds-capped, not time-capped
  spec.max_rounds = 20;
  spec.eval_every = 10;
  spec.eval_samples = 256;
  spec.mechanisms.resize(2);
  spec.mechanisms[0].kind = "fedavg";
  spec.mechanisms[1].kind = "airfedavg";
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bench::FlagParser flags(
      "Population scale-out: pooled worker state at N up to 1e6 workers; "
      "reports rounds, virtual/wall time, peak RSS and the metrics digest per grid point.");
  flags.add("json", "append one JSONL record per run to this file");
  flags.add("max-workers", "largest population in the grid (default 100000)");
  if (auto ec = flags.parse(argc, argv)) return *ec;

  std::size_t max_workers = 100000;
  if (const std::string* v = flags.get("max-workers"))
    max_workers = std::strtoull(v->c_str(), nullptr, 10);
  if (max_workers < 1000) {
    std::fprintf(stderr, "invalid --max-workers (>= 1000)\n");
    return 2;
  }

  std::vector<std::size_t> grid = {1000, 10000};
  for (std::size_t n : {std::size_t{100000}, std::size_t{1000000}, max_workers})
    if (n <= max_workers && n > grid.back()) grid.push_back(n);

  std::vector<scenario::Json> records;
  util::Table t({"N", "mechanism", "rounds", "virtual(s)", "wall(s)", "peak RSS(MiB)", "digest"});
  for (std::size_t n : grid) {
    scenario::ScenarioSpec spec = make_spec(n);
    spec.validate();
    auto built = scenario::build(spec);
    for (std::size_t i = 0; i < built.mechanisms.size(); ++i) {
      const double t0 = now_seconds();
      const fl::Metrics m = built.mechanisms[i]->run(built.cfg);
      const double wall = now_seconds() - t0;
      const double rss = peak_rss_mib();
      t.add_row({util::Table::fmt_int(static_cast<long long>(n)), built.mechanism_names[i],
                 util::Table::fmt_int(static_cast<long long>(m.total_rounds())),
                 util::Table::fmt(m.total_time(), 0), util::Table::fmt(wall, 2),
                 rss < 0 ? "-" : util::Table::fmt(rss, 1), m.digest()});
      scenario::Json rec = scenario::Json::object();
      rec.set("kind", "population_scale");
      rec.set("workers", n);
      rec.set("mechanism", built.mechanism_names[i]);
      rec.set("rounds", m.total_rounds());
      rec.set("virtual_seconds", m.total_time());
      rec.set("wall_seconds", wall);
      if (rss >= 0) rec.set("peak_rss_mib", rss);
      rec.set("digest", m.digest());
      records.push_back(std::move(rec));
    }
  }

  std::printf("=== Population scale-out: pooled workers ===\n");
  t.print(std::cout);

  if (const std::string* path = flags.get("json")) {
    std::ofstream out(*path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path->c_str());
      return 1;
    }
    for (const auto& rec : records) out << rec.dump() << "\n";
    std::printf("\nwrote %zu records to %s\n", records.size(), path->c_str());
  }
  return 0;
}
