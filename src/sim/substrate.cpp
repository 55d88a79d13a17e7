#include "sim/substrate.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace airfedga::sim {

namespace {

// Tags reserved for substrate-owned RNG streams (determinism invariant #8):
// the root is forked from the run seed, then churn phases and per-round CSI
// error fork from the root. None of these collide with the worker
// (1000 + i), model (0x1717), fading, or cohort-sampling derivations.
constexpr std::uint64_t kSubstrateTag = 0x5B57247E;  // "SUBSTRATE"
constexpr std::uint64_t kChurnTag = 1;
constexpr std::uint64_t kCsiTag = 2;

// out[j] = g[members[j]] under member_gains' input contract.
void gather(const std::vector<double>& g, std::span<const std::size_t> members,
            std::vector<double>& out) {
  out.resize(members.size());
  for (std::size_t j = 0; j < members.size(); ++j) {
    if (j > 0 && members[j] <= members[j - 1])
      throw std::invalid_argument("member_gains: members not strictly increasing");
    out[j] = g.at(members[j]);
  }
}

}  // namespace

void SubstrateOptions::validate() const {
  auto bad = [](const std::string& what) { throw std::invalid_argument("substrate: " + what); };
  if (churn) {
    if (!(churn_period > 0.0)) bad("churn_period must be > 0");
    if (!(churn_on_fraction > 0.0) || churn_on_fraction > 1.0)
      bad("churn_on_fraction must be in (0, 1]");
  }
  if (energy) {
    if (!(energy_budget > 0.0)) bad("energy_budget must be > 0");
    if (energy_oma_upload < 0.0) bad("energy_oma_upload must be >= 0");
  }
  if (csi_error && csi_error_std < 0.0) bad("csi_error_std must be >= 0");
}

void set_substrate_kind(SubstrateOptions& opts, const std::string& kind) {
  opts.churn = opts.energy = opts.csi_error = false;
  if (kind == "static") return;
  // getline drops a trailing empty token, so "churn+" would otherwise
  // silently parse as "churn".
  if (!kind.empty() && kind.back() == '+')
    throw std::invalid_argument("substrate kind must not end in '+'");
  std::stringstream ss(kind);
  std::string token;
  bool saw_token = false;
  while (std::getline(ss, token, '+')) {
    saw_token = true;
    bool* flag = nullptr;
    if (token == "churn") flag = &opts.churn;
    else if (token == "energy") flag = &opts.energy;
    else if (token == "csi_error") flag = &opts.csi_error;
    else
      throw std::invalid_argument("unknown substrate kind token '" + token +
                                  "' (expected static, churn, energy, csi_error)");
    if (*flag) throw std::invalid_argument("duplicate substrate kind token '" + token + "'");
    *flag = true;
  }
  if (!saw_token) throw std::invalid_argument("substrate kind must not be empty");
}

std::string substrate_kind(const SubstrateOptions& opts) {
  std::string out;
  auto append = [&out](const char* token) {
    if (!out.empty()) out += '+';
    out += token;
  };
  if (opts.churn) append("churn");
  if (opts.energy) append("energy");
  if (opts.csi_error) append("csi_error");
  return out.empty() ? "static" : out;
}

void Substrate::member_gains(std::span<const std::size_t> members, std::size_t round,
                             std::vector<double>& out) {
  gather(gains(round), members, out);
}

// ---------------------------------------------------------------------------
// StaticSubstrate

StaticSubstrate::StaticSubstrate(std::size_t num_workers,
                                 const channel::FadingChannel::Config& fading,
                                 const channel::LatencyConfig& latency)
    : n_(num_workers), fading_(num_workers, fading), latency_(latency) {}

const std::vector<double>& StaticSubstrate::true_gains(std::size_t round) {
  if (gains_round_ != round || gains_cache_.empty()) {
    const obs::Span span("substrate", "substrate.gains");
    gains_cache_ = fading_.gains(round);
    gains_round_ = round;
  }
  return gains_cache_;
}

void StaticSubstrate::member_gains(std::span<const std::size_t> members, std::size_t round,
                                   std::vector<double>& out) {
  if (gains_round_ == round && !gains_cache_.empty())
    gather(gains_cache_, members, out);
  else
    fading_.gains_of(members, round, out);
}

double StaticSubstrate::aircomp_upload_seconds(std::size_t q, double /*time*/) const {
  return latency_.aircomp_upload_seconds(q);
}

double StaticSubstrate::oma_upload_seconds(std::size_t q, std::size_t uploaders,
                                           double /*time*/) const {
  return latency_.oma_upload_seconds(q, uploaders);
}

double StaticSubstrate::remaining_joules(std::size_t /*worker*/) const {
  return std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------------
// RealismSubstrate

RealismSubstrate::RealismSubstrate(std::size_t num_workers,
                                   const channel::FadingChannel::Config& fading,
                                   const channel::LatencyConfig& latency,
                                   const SubstrateOptions& opts, std::uint64_t run_seed)
    : StaticSubstrate(num_workers, fading, latency), opts_(opts) {
  opts_.validate();
  const util::Rng root(util::splitmix64(run_seed ^ kSubstrateTag));
  if (opts_.churn) {
    util::Rng phases = root.fork(kChurnTag);
    phase_.resize(num_workers);
    for (double& p : phase_) p = phases.uniform(0.0, opts_.churn_period);
  }
  if (opts_.energy) remaining_.assign(num_workers, opts_.energy_budget);
  if (opts_.csi_error) csi_seed_ = root.fork(kCsiTag).seed();
}

void RealismSubstrate::ensure_csi(std::size_t round) {
  if (csi_round_ == round && !reported_.empty()) return;
  const std::vector<double>& truth = true_gains(round);
  const obs::Span span("substrate", "substrate.gains");  // the estimate layer
  reported_.resize(truth.size());
  scales_.resize(truth.size());
  // One substrate-owned stream per (csi seed, round); worker order fixed, so
  // the draw sequence is independent of which workers end up participating.
  util::Rng rng(util::splitmix64(csi_seed_ ^ (round * 0x9E3779B97F4A7C15ULL)));
  rng.normal_fill(reported_, 0.0, opts_.csi_error_std);  // eps, overwritten below
  for (std::size_t i = 0; i < truth.size(); ++i) {
    // Clamp the relative error so a wild draw cannot flip the estimate's
    // sign or drive the pre-equalization divisor towards zero.
    double factor = 1.0 + reported_[i];
    if (factor < 0.1) factor = 0.1;
    reported_[i] = truth[i] * factor;
    scales_[i] = truth[i] / reported_[i];
  }
  csi_round_ = round;
}

const std::vector<double>& RealismSubstrate::gains(std::size_t round) {
  if (!opts_.csi_error) return true_gains(round);
  ensure_csi(round);
  return reported_;
}

void RealismSubstrate::member_gains(std::span<const std::size_t> members, std::size_t round,
                                    std::vector<double>& out) {
  // The CSI estimate error comes from normal(), which consumes a variable
  // number of engine words per draw, so a member's error cannot be reached
  // by skipping ahead: with CSI error on, gather from the full vector.
  if (opts_.csi_error)
    Substrate::member_gains(members, round, out);
  else
    StaticSubstrate::member_gains(members, round, out);
}

std::span<const double> RealismSubstrate::csi_scales(std::size_t round) {
  if (!opts_.csi_error) return {};
  ensure_csi(round);
  return scales_;
}

bool RealismSubstrate::available(std::size_t worker, double time) const {
  if (!opts_.churn) return true;
  // Availability is a pure function of time: an on/off square wave with a
  // per-worker random phase. No bookkeeping to drift out of sync with the
  // event queue, so replays and thread counts cannot change the trace.
  const double pos = std::fmod(time + phase_[worker], opts_.churn_period);
  return pos < opts_.churn_on_fraction * opts_.churn_period;
}

double RealismSubstrate::next_transition(std::size_t worker, double time) const {
  if (!opts_.churn || opts_.churn_on_fraction >= 1.0) return -1.0;
  const double period = opts_.churn_period;
  const double on_span = opts_.churn_on_fraction * period;
  const double pos = std::fmod(time + phase_[worker], period);
  const double cycle_start = time - pos;
  double next = cycle_start + (pos < on_span ? on_span : period);
  // fmod rounding can land `next` at or before `time` when `time` sits
  // exactly on a boundary; push to the following transition instead.
  while (!(next > time)) next += (next - cycle_start < on_span ? period - on_span : on_span);
  return next;
}

bool RealismSubstrate::depleted(std::size_t worker) const {
  return opts_.energy && remaining_[worker] <= 0.0;
}

void RealismSubstrate::charge(std::size_t worker, double joules) {
  if (!opts_.energy || joules <= 0.0) return;
  const bool was_depleted = remaining_[worker] <= 0.0;
  remaining_[worker] -= joules;
  if (!was_depleted && remaining_[worker] <= 0.0) ++depleted_count_;
}

double RealismSubstrate::remaining_joules(std::size_t worker) const {
  return opts_.energy ? remaining_[worker] : std::numeric_limits<double>::infinity();
}

double RealismSubstrate::oma_upload_joules() const {
  return opts_.energy ? opts_.energy_oma_upload : 0.0;
}

std::unique_ptr<Substrate> make_substrate(std::size_t num_workers,
                                          const channel::FadingChannel::Config& fading,
                                          const channel::LatencyConfig& latency,
                                          const SubstrateOptions& opts,
                                          std::uint64_t run_seed) {
  if (!opts.any()) return std::make_unique<StaticSubstrate>(num_workers, fading, latency);
  return std::make_unique<RealismSubstrate>(num_workers, fading, latency, opts, run_seed);
}

}  // namespace airfedga::sim
