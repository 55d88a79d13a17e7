#include "channel/fading.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace airfedga::channel {

FadingChannel::FadingChannel(std::size_t num_workers, Config cfg) : n_(num_workers), cfg_(cfg) {
  if (num_workers == 0) throw std::invalid_argument("FadingChannel: zero workers");
  if (cfg.rayleigh_scale <= 0.0) throw std::invalid_argument("FadingChannel: scale must be > 0");
  if (cfg.min_gain < 0.0) throw std::invalid_argument("FadingChannel: min_gain must be >= 0");
  if (cfg.pathloss_exponent < 0.0)
    throw std::invalid_argument("FadingChannel: path-loss exponent must be >= 0");
  if (cfg.pathloss_exponent > 0.0 &&
      (cfg.distance_min <= 0.0 || cfg.distance_max < cfg.distance_min))
    throw std::invalid_argument("FadingChannel: bad distance range");

  large_scale_.assign(n_, 1.0);
  if (cfg.pathloss_exponent > 0.0) {
    util::Rng rng = util::Rng(cfg.seed).fork(0xD157);
    for (auto& s : large_scale_) {
      const double dist = rng.uniform(cfg.distance_min, cfg.distance_max);
      s = std::pow(dist, -cfg.pathloss_exponent / 2.0);
    }
  }
}

util::Rng FadingChannel::round_stream(std::size_t round) const {
  // One deterministic sub-stream per round keeps the block-fading property
  // (constant within a round) without storing any history.
  return util::Rng(cfg_.seed).fork(0xC0FFEE + round);
}

double FadingChannel::gain_from(std::size_t worker, util::Rng& stream) const {
  return std::max(cfg_.min_gain, large_scale_[worker] * stream.rayleigh(cfg_.rayleigh_scale));
}

std::vector<double> FadingChannel::gains(std::size_t round) const {
  util::Rng rng = round_stream(round);
  std::vector<double> h(n_);
  for (std::size_t i = 0; i < n_; ++i) h[i] = gain_from(i, rng);
  return h;
}

void FadingChannel::gains_of(std::span<const std::size_t> members, std::size_t round,
                             std::vector<double>& out) const {
  out.resize(members.size());
  if (members.empty()) return;
  util::Rng rng = round_stream(round);
  std::size_t at = 0;  // stream position: the next word draws worker `at`
  for (std::size_t j = 0; j < members.size(); ++j) {
    const std::size_t m = members[j];
    if (m >= n_) throw std::out_of_range("FadingChannel::gains_of: worker out of range");
    if (m < at)
      throw std::invalid_argument("FadingChannel::gains_of: members not strictly increasing");
    rng.engine().discard(m - at);
    out[j] = gain_from(m, rng);
    at = m + 1;
  }
}

double FadingChannel::gain(std::size_t worker, std::size_t round) const {
  if (worker >= n_) throw std::out_of_range("FadingChannel::gain: worker out of range");
  std::vector<double> h;
  gains_of({&worker, 1}, round, h);
  return h[0];
}

}  // namespace airfedga::channel
