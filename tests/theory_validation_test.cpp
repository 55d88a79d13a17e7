// Cross-module validation of the paper's analytical quantities against the
// simulator: the aggregation-error proxy C_t (Eq. 30) against measured
// over-the-air MSE, and the EMD gradient-divergence bound (Eq. 24)
// against actual gradients.

#include <gtest/gtest.h>

#include <cmath>

#include "channel/aircomp.hpp"
#include "core/convergence.hpp"
#include "core/power_control.hpp"
#include "data/data_stats.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "ml/zoo.hpp"

namespace airfedga {
namespace {

TEST(TheoryValidation, MeasuredAggregationMseTracksEq30) {
  // Build a group with known models, run power control, aggregate many
  // times, and compare the empirical E||eps||^2 with C_t. C_t charges the
  // worst-case model norm W^2, so it is an upper bound of the measured
  // error but must be of the same order when all norms equal W.
  const std::size_t q = 2048, m = 8;
  const double d_i = 100.0;
  util::Rng rng(1);
  std::vector<std::vector<float>> models(m);
  const double w_norm_sq = 300.0;
  for (auto& w : models) {
    w.resize(q);
    for (auto& v : w) v = static_cast<float>(rng.normal(0.0, std::sqrt(w_norm_sq / q)));
  }
  std::vector<double> gains(m);
  for (auto& h : gains) h = rng.rayleigh(0.8) + 0.2;

  core::PowerControlInput pin;
  pin.model_bound_sq = w_norm_sq;
  pin.sigma0_sq = 1.0;
  pin.group_data = d_i * static_cast<double>(m);
  pin.gains = gains;
  pin.data_sizes.assign(m, d_i);
  pin.energy_caps.assign(m, 10.0);
  const auto pc = core::optimize_power(pin);

  // Ideal group average (error-free Eq. 8 with beta = 1, w_prev = 0).
  std::vector<float> w_prev(q, 0.0f);
  std::vector<std::span<const float>> views(models.begin(), models.end());
  std::vector<double> sizes(m, d_i);
  const auto ideal =
      channel::AirCompChannel::ideal_aggregate(w_prev, views, sizes, pin.group_data);

  channel::AirCompChannel ch({.sigma0_sq = 1.0, .seed = 2});
  channel::AirCompChannel::Input ain;
  ain.w_prev = w_prev;
  ain.local_models = views;
  ain.data_sizes = sizes;
  ain.gains = gains;
  ain.sigma = pc.sigma;
  ain.eta = pc.eta;
  ain.total_data = pin.group_data;

  double mse = 0.0;
  const int reps = 40;
  for (int r = 0; r < reps; ++r) {
    const auto out = ch.aggregate(ain);
    for (std::size_t i = 0; i < q; ++i) {
      const double diff = static_cast<double>(out.w_next[i]) - ideal[i];
      mse += diff * diff;
    }
  }
  mse /= reps;

  const double predicted =
      core::aggregation_error(pc.sigma, pc.eta, w_norm_sq, 1.0, pin.group_data);
  EXPECT_GT(mse, 0.1 * predicted);
  EXPECT_LT(mse, 3.0 * predicted);
}

TEST(TheoryValidation, GradientDivergenceBoundedByEmdTimesG) {
  // Eq. 24: ||grad F(w) - grad F_j(w)||^2 <= Lambda_j^2 G^2 where G bounds
  // the per-class expected gradient norm (Assumption 3). Estimate G from
  // per-class gradients and verify the inequality at random parameter
  // points for label-skewed groups.
  auto ds = data::make_synthetic_flat(16, {1200, 6, 1.0, 0.3, 3});
  util::Rng rng(3);
  auto partition = data::partition_label_skew(ds, 12, rng);
  data::DataStats stats(ds, partition);

  ml::Model model = ml::make_softmax_regression(16, 6);
  util::Rng init(4);
  model.init(init);

  auto gradient_on = [&](const std::vector<std::size_t>& sample_idx) {
    ml::Tensor xb = ml::gather_rows(ds.xs, sample_idx);
    std::vector<int> yb;
    yb.reserve(sample_idx.size());
    for (auto i : sample_idx) yb.push_back(ds.ys[i]);
    std::vector<float> g;
    model.compute_gradient(xb, yb, g);
    return g;
  };

  // Per-class gradients -> G estimate; global gradient from all samples.
  std::vector<std::size_t> all(ds.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto g_global = gradient_on(all);
  double g_bound_sq = 0.0;
  for (std::size_t c = 0; c < ds.num_classes; ++c) {
    const auto idx = ds.indices_of_class(static_cast<int>(c));
    g_bound_sq = std::max(g_bound_sq, ml::squared_norm(gradient_on(idx)));
  }

  // Candidate groups of varying skew.
  std::vector<std::vector<std::size_t>> groups = {
      {0, 1},          // single class
      {0, 2, 4},       // three classes
      {0, 2, 4, 6, 8, 10},  // near-uniform
  };
  for (const auto& g : groups) {
    std::vector<std::size_t> member_samples;
    for (auto w : g)
      member_samples.insert(member_samples.end(), partition[w].begin(), partition[w].end());
    const auto g_group = gradient_on(member_samples);
    double diff_sq = 0.0;
    for (std::size_t i = 0; i < g_global.size(); ++i) {
      const double d = static_cast<double>(g_global[i]) - g_group[i];
      diff_sq += d * d;
    }
    // Eq. 24 bounds *population* gradients; a finite-sample slack absorbs
    // the sampling noise of the group's empirical gradient (visible as a
    // small nonzero divergence even at EMD = 0).
    const double lambda = stats.emd(g);
    EXPECT_LE(diff_sq, lambda * lambda * g_bound_sq + 0.01) << "group EMD " << lambda;
  }
}

TEST(TheoryValidation, SmallerEmdGivesSmallerGradientDivergence) {
  auto ds = data::make_synthetic_flat(16, {1200, 6, 1.0, 0.3, 5});
  util::Rng rng(5);
  auto partition = data::partition_label_skew(ds, 12, rng);
  data::DataStats stats(ds, partition);
  ml::Model model = ml::make_softmax_regression(16, 6);
  util::Rng init(6);
  model.init(init);

  auto divergence = [&](const std::vector<std::size_t>& group) {
    std::vector<std::size_t> all(ds.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    ml::Tensor xa = ml::gather_rows(ds.xs, all);
    std::vector<int> ya = ds.ys;
    std::vector<float> g_all;
    model.compute_gradient(xa, ya, g_all);

    std::vector<std::size_t> samples;
    for (auto w : group)
      samples.insert(samples.end(), partition[w].begin(), partition[w].end());
    ml::Tensor xg = ml::gather_rows(ds.xs, samples);
    std::vector<int> yg;
    for (auto i : samples) yg.push_back(ds.ys[i]);
    std::vector<float> g_grp;
    model.compute_gradient(xg, yg, g_grp);

    double acc = 0.0;
    for (std::size_t i = 0; i < g_all.size(); ++i) {
      const double d = static_cast<double>(g_all[i]) - g_grp[i];
      acc += d * d;
    }
    return acc;
  };

  const std::vector<std::size_t> skewed = {0, 1};               // one class
  const std::vector<std::size_t> mixed = {0, 2, 4, 6, 8, 10};   // six classes
  EXPECT_GT(stats.emd(skewed), stats.emd(mixed));
  EXPECT_GT(divergence(skewed), divergence(mixed));
}

}  // namespace
}  // namespace airfedga
