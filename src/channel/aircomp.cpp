#include "channel/aircomp.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/tensor.hpp"

namespace airfedga::channel {

AirCompChannel::AirCompChannel(Config cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg.sigma0_sq < 0.0) throw std::invalid_argument("AirCompChannel: negative noise power");
}

double transmit_energy(double data_size, double sigma, double gain,
                       std::span<const float> model) {
  if (gain <= 0.0) throw std::invalid_argument("transmit_energy: gain must be > 0");
  const double p = data_size * sigma / gain;
  return p * p * ml::squared_norm(model);
}

AirCompChannel::Output AirCompChannel::aggregate(const Input& in) {
  const std::size_t q = in.w_prev.size();
  const std::size_t m = in.local_models.size();
  if (m == 0) throw std::invalid_argument("AirCompChannel::aggregate: empty group");
  if (in.data_sizes.size() != m || in.gains.size() != m)
    throw std::invalid_argument("AirCompChannel::aggregate: size/gain count mismatch");
  if (!in.csi_scale.empty() && in.csi_scale.size() != m)
    throw std::invalid_argument("AirCompChannel::aggregate: csi_scale count mismatch");
  if (in.sigma <= 0.0 || in.eta <= 0.0)
    throw std::invalid_argument("AirCompChannel::aggregate: sigma and eta must be > 0");
  if (in.total_data <= 0.0)
    throw std::invalid_argument("AirCompChannel::aggregate: total_data must be > 0");
  for (const auto& w : in.local_models)
    if (w.size() != q)
      throw std::invalid_argument("AirCompChannel::aggregate: model dimension mismatch");

  Output out;
  out.energies.resize(m);

  double group_data = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    group_data += in.data_sizes[i];
    out.energies[i] = transmit_energy(in.data_sizes[i], in.sigma, in.gains[i],
                                      in.local_models[i]);
  }
  out.beta = group_data / in.total_data;

  // Received superposition y_t = sum_i d_i sigma w_i + z (Eq. 9), followed
  // by the PS estimate (Eq. 10). Accumulate in double for q up to millions.
  std::vector<double> y(q, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    // Imperfect CSI leaves the residual h/h_hat on worker i's contribution
    // (pre-equalization divides by h_hat, the channel multiplies by h).
    // The empty-vector fast path keeps perfect-CSI arithmetic untouched.
    const double scale = in.csi_scale.empty()
                             ? in.data_sizes[i] * in.sigma
                             : in.data_sizes[i] * in.sigma * in.csi_scale[i];
    const float* w = in.local_models[i].data();
    for (std::size_t d = 0; d < q; ++d) y[d] += scale * w[d];
  }
  const double noise_std = q > 0 ? std::sqrt(cfg_.sigma0_sq / static_cast<double>(q)) : 0.0;
  double noise_energy = 0.0;
  if (noise_std > 0.0) {
    util::dist::normal_fill(rng_.engine(), q, 0.0, noise_std, [&](std::size_t d, double z) {
      noise_energy += z * z;
      y[d] += z;
    });
  }
  out.noise_energy = noise_energy;

  const double denom = in.total_data * std::sqrt(in.eta);
  const double keep = 1.0 - out.beta;
  out.w_next.resize(q);
  for (std::size_t d = 0; d < q; ++d)
    out.w_next[d] = static_cast<float>(keep * in.w_prev[d] + y[d] / denom);
  return out;
}

std::vector<float> AirCompChannel::ideal_aggregate(
    std::span<const float> w_prev, const std::vector<std::span<const float>>& local_models,
    const std::vector<double>& data_sizes, double total_data) {
  const std::size_t q = w_prev.size();
  const std::size_t m = local_models.size();
  if (data_sizes.size() != m)
    throw std::invalid_argument("ideal_aggregate: size count mismatch");
  double beta = 0.0;
  for (double d : data_sizes) beta += d / total_data;
  std::vector<double> acc(q, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double alpha = data_sizes[i] / total_data;
    const float* w = local_models[i].data();
    for (std::size_t d = 0; d < q; ++d) acc[d] += alpha * w[d];
  }
  std::vector<float> out(q);
  for (std::size_t d = 0; d < q; ++d)
    out[d] = static_cast<float>((1.0 - beta) * w_prev[d] + acc[d]);
  return out;
}

}  // namespace airfedga::channel
