// Fig. 7 reproduction: box plot of per-group local-training times for 100
// workers grouped by Alg. 3 at xi = 0.3. The paper shows that workers with
// comparable training time land in the same group (their instance: overall
// range 8.1s-61.6s, e.g. group 7 spanning 49.1s-61.6s).

#include <algorithm>

#include "common.hpp"
#include "core/grouping.hpp"
#include "sim/cluster.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace airfedga;
  bench::FlagParser flags("Fig. 7: box plot of per-group local-training times (Alg. 3, xi=0.3)");
  if (auto ec = flags.parse(argc, argv)) return *ec;

  auto tt = data::make_mnist_like(2000, 100, 1);
  util::Rng rng(42);
  auto partition = data::partition_label_skew(tt.train, 100, rng);
  data::DataStats stats(tt.train, partition);

  sim::ClusterModel::Config ccfg;
  ccfg.base_seconds = 6.0;
  ccfg.seed = 43;
  sim::ClusterModel cluster(100, ccfg);
  const auto lt = cluster.local_times();

  core::GroupingConfig gcfg;
  gcfg.xi = 0.3;
  gcfg.aircomp_upload_seconds = 0.01;
  gcfg.convergence.model_bound_sq = 50.0;  // planning bound for a small model
  const auto res = core::airfedga_grouping(stats, lt, gcfg);

  const auto [mn, mx] = std::minmax_element(lt.begin(), lt.end());
  std::printf("=== Fig. 7: grouping of 100 workers by local training time (xi = 0.3) ===\n");
  std::printf("local training times span %.1fs .. %.1fs, %zu groups\n\n", *mn, *mx,
              res.groups.size());

  // Sort groups by median time for a paper-like left-to-right box plot.
  std::vector<std::size_t> order(res.groups.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::vector<util::BoxplotSummary> boxes(res.groups.size());
  for (std::size_t j = 0; j < res.groups.size(); ++j) {
    std::vector<double> times;
    for (auto w : res.groups[j]) times.push_back(lt[w]);
    boxes[j] = util::boxplot(times);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return boxes[a].median < boxes[b].median; });

  util::Table t({"group", "size", "min(s)", "q1(s)", "median(s)", "q3(s)", "max(s)", "EMD"});
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const auto j = order[rank];
    t.add_row({util::Table::fmt_int(static_cast<long long>(rank + 1)),
               util::Table::fmt_int(static_cast<long long>(res.groups[j].size())),
               util::Table::fmt(boxes[j].min, 1), util::Table::fmt(boxes[j].q1, 1),
               util::Table::fmt(boxes[j].median, 1), util::Table::fmt(boxes[j].q3, 1),
               util::Table::fmt(boxes[j].max, 1),
               util::Table::fmt(stats.emd(res.groups[j]), 3)});
  }
  t.print(std::cout);
  t.write_csv(bench::results_dir() + "/fig07_boxplot.csv");

  std::printf("\nconstraint check: xi * Delta_l = %.1fs; max intra-group spread = ",
              0.3 * (*mx - *mn));
  double worst = 0.0;
  for (const auto& b : boxes) worst = std::max(worst, b.max - b.min);
  std::printf("%.1fs\n", worst);
  return 0;
}
