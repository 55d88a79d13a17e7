#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace airfedga::channel {

/// Block-fading wireless channel between each worker and the parameter
/// server: the gain h_i_t is constant within a communication round and
/// redrawn independently across rounds (paper §III-B4).
///
/// Gains are Rayleigh-distributed magnitudes (the standard rich-scattering
/// model) truncated below at `min_gain`: a worker in a deep fade would
/// otherwise force the common power scaling factor sigma_t towards zero
/// (Eq. 47) and blow up the denoising error. The paper does not model
/// deep-fade exclusion, so we truncate — the same practical fix used in the
/// AirComp literature it builds on.
class FadingChannel {
 public:
  struct Config {
    double rayleigh_scale = 0.7979;  ///< E[h] = scale * sqrt(pi/2) ~= 1.0
    double min_gain = 0.15;
    std::uint64_t seed = 7;

    /// Optional large-scale path loss: when `pathloss_exponent > 0`,
    /// worker i sits at a distance drawn from U[distance_min, distance_max]
    /// (relative units, 1 = reference distance) and its fading scale is
    /// multiplied by distance^(-pathloss_exponent/2), i.e. its *average*
    /// gain decays with distance as in the standard log-distance model.
    /// Distances are fixed for the lifetime of the channel (devices do not
    /// move between rounds). Default 0 = the paper's homogeneous setting.
    double pathloss_exponent = 0.0;
    double distance_min = 0.5;
    double distance_max = 2.0;
  };

  FadingChannel(std::size_t num_workers, Config cfg);

  /// Per-worker average-gain multipliers from the path-loss model (all 1.0
  /// when path loss is disabled).
  [[nodiscard]] const std::vector<double>& large_scale() const { return large_scale_; }

  /// Gains for all workers at the given round. Deterministic per
  /// (seed, round): repeated calls return identical vectors.
  [[nodiscard]] std::vector<double> gains(std::size_t round) const;

  /// Gains of `members` (strictly increasing worker ids) at `round`, into
  /// `out` (resized to members.size()): out[j] is bitwise gains(round)[members[j]].
  /// Every gain is one word of the round's stream, so this walks the stream
  /// once and skips the words of non-members: O(members) draws plus an
  /// untempered skip, instead of N draws. Throws std::invalid_argument on
  /// unsorted or repeated ids and std::out_of_range on an id >= N.
  void gains_of(std::span<const std::size_t> members, std::size_t round,
                std::vector<double>& out) const;

  /// Gain of a single worker at a round.
  [[nodiscard]] double gain(std::size_t worker, std::size_t round) const;

  [[nodiscard]] std::size_t num_workers() const { return n_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  /// The round's stream: word i draws worker i's small-scale fade.
  [[nodiscard]] util::Rng round_stream(std::size_t round) const;
  /// Worker i's gain from the stream's next word, its Rayleigh draw.
  [[nodiscard]] double gain_from(std::size_t worker, util::Rng& stream) const;

  std::size_t n_;
  Config cfg_;
  std::vector<double> large_scale_;
};

}  // namespace airfedga::channel
