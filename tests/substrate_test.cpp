// Tests for the time-varying substrate layer: the generator kinds
// (churn / energy / csi_error) in isolation, the static substrate's
// bit-identity acceptance check — every mechanism's pre-refactor golden
// digest reproduced across lane counts — the realism generators'
// per-seed determinism (lane-count-invariant digests), the substrate
// observability counters, and the scenario-layer substrate section
// (round-trip + validation).

#include "sim/substrate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fl/loop.hpp"
#include "fl/mechanisms.hpp"
#include "ml/zoo.hpp"
#include "scenario/spec.hpp"
#include "support/golden.hpp"
#include "util/rng.hpp"

namespace airfedga {
namespace {

using sim::Substrate;
using sim::SubstrateOptions;

// ------------------------------------------------------------ kind parser --

TEST(SubstrateKind, ParsesStaticAndEveryTokenCombination) {
  SubstrateOptions o;
  sim::set_substrate_kind(o, "static");
  EXPECT_FALSE(o.any());
  EXPECT_EQ(sim::substrate_kind(o), "static");

  sim::set_substrate_kind(o, "churn");
  EXPECT_TRUE(o.churn);
  EXPECT_FALSE(o.energy);
  EXPECT_FALSE(o.csi_error);

  sim::set_substrate_kind(o, "energy+csi_error");
  EXPECT_FALSE(o.churn);
  EXPECT_TRUE(o.energy);
  EXPECT_TRUE(o.csi_error);

  sim::set_substrate_kind(o, "churn+energy+csi_error");
  EXPECT_TRUE(o.churn && o.energy && o.csi_error);
  // Canonical token order, whatever order the input used.
  sim::set_substrate_kind(o, "csi_error+churn");
  EXPECT_EQ(sim::substrate_kind(o), "churn+csi_error");
}

TEST(SubstrateKind, RejectsUnknownDuplicateAndEmptyTokens) {
  SubstrateOptions o;
  EXPECT_THROW(sim::set_substrate_kind(o, "chrun"), std::invalid_argument);
  EXPECT_THROW(sim::set_substrate_kind(o, "churn+churn"), std::invalid_argument);
  EXPECT_THROW(sim::set_substrate_kind(o, ""), std::invalid_argument);
  EXPECT_THROW(sim::set_substrate_kind(o, "churn+"), std::invalid_argument);
  EXPECT_THROW(sim::set_substrate_kind(o, "static+churn"), std::invalid_argument);
}

TEST(SubstrateKind, OptionsValidateChecksOnlyEnabledGenerators) {
  SubstrateOptions o;
  o.churn_period = -1.0;  // churn disabled: the bad knob is ignored
  EXPECT_NO_THROW(o.validate());
  o.churn = true;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.churn_period = 100.0;
  o.churn_on_fraction = 1.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.churn_on_fraction = 1.0;
  EXPECT_NO_THROW(o.validate());
  o.energy = true;
  o.energy_budget = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.energy_budget = 5.0;
  o.csi_error = true;
  o.csi_error_std = -0.1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- generators --

std::unique_ptr<Substrate> make(const SubstrateOptions& opts, std::size_t n = 8,
                                std::uint64_t seed = 7) {
  channel::FadingChannel::Config fading;
  fading.seed = seed + 2;
  return sim::make_substrate(n, fading, channel::LatencyConfig{}, opts, seed);
}

TEST(StaticSubstrate, IsAlwaysSelectableAndNeverTransitions) {
  auto s = make(SubstrateOptions{});
  EXPECT_FALSE(s->time_varying());
  for (double t : {0.0, 123.4, 9e6}) {
    for (std::size_t w = 0; w < s->num_workers(); ++w) {
      EXPECT_TRUE(s->available(w, t));
      EXPECT_FALSE(s->depleted(w));
      EXPECT_TRUE(s->selectable(w, t));
      EXPECT_LT(s->next_transition(w, t), 0.0);
    }
  }
  EXPECT_TRUE(s->csi_scales(3).empty());
  EXPECT_EQ(s->depleted_count(), 0u);
  EXPECT_EQ(s->oma_upload_joules(), 0.0);
  EXPECT_TRUE(std::isinf(s->remaining_joules(0)));
}

TEST(StaticSubstrate, LatencyQueriesIgnoreTime) {
  auto s = make(SubstrateOptions{});
  const channel::LatencyModel latency;
  EXPECT_EQ(s->aircomp_upload_seconds(5000, 0.0), latency.aircomp_upload_seconds(5000));
  EXPECT_EQ(s->aircomp_upload_seconds(5000, 777.0), latency.aircomp_upload_seconds(5000));
  EXPECT_EQ(s->oma_upload_seconds(5000, 3, 42.0), latency.oma_upload_seconds(5000, 3));
}

TEST(ChurnSubstrate, AvailabilityIsAPeriodicSquareWave) {
  SubstrateOptions o;
  o.churn = true;
  o.churn_period = 100.0;
  o.churn_on_fraction = 0.6;
  auto s = make(o);
  EXPECT_TRUE(s->time_varying());

  for (std::size_t w = 0; w < s->num_workers(); ++w) {
    // Exactly on_fraction of a fine sampling grid is online, and the wave
    // repeats with the configured period.
    std::size_t on = 0;
    const std::size_t samples = 1000;
    for (std::size_t i = 0; i < samples; ++i) {
      const double t = o.churn_period * static_cast<double>(i) / static_cast<double>(samples);
      on += s->available(w, t) ? 1 : 0;
      EXPECT_EQ(s->available(w, t), s->available(w, t + 3 * o.churn_period));
    }
    // Exact up to one sample straddling the fmod boundary.
    EXPECT_NEAR(static_cast<double>(on), o.churn_on_fraction * samples, 1.0);
  }
}

TEST(ChurnSubstrate, NextTransitionIsTheNextAvailabilityFlip) {
  SubstrateOptions o;
  o.churn = true;
  o.churn_period = 50.0;
  o.churn_on_fraction = 0.3;
  auto s = make(o);

  for (std::size_t w = 0; w < s->num_workers(); ++w) {
    double t = 0.0;
    for (int hop = 0; hop < 12; ++hop) {
      const double next = s->next_transition(w, t);
      ASSERT_GT(next, t);
      // State is constant up to the transition and flips right after it.
      const bool state = s->available(w, t);
      EXPECT_EQ(s->available(w, 0.5 * (t + next)), state);
      EXPECT_NE(s->available(w, next + 1e-6), state);
      t = next;
    }
  }
}

TEST(ChurnSubstrate, AlwaysOnWorkersNeverTransition) {
  SubstrateOptions o;
  o.churn = true;
  o.churn_on_fraction = 1.0;
  auto s = make(o);
  EXPECT_TRUE(s->available(3, 123.0));
  EXPECT_LT(s->next_transition(3, 123.0), 0.0);
}

TEST(EnergySubstrate, ChargingDrainsBudgetsAndCountsDepletions) {
  SubstrateOptions o;
  o.energy = true;
  o.energy_budget = 10.0;
  o.energy_oma_upload = 2.5;
  auto s = make(o, 4);
  EXPECT_TRUE(s->time_varying());
  EXPECT_EQ(s->oma_upload_joules(), 2.5);
  EXPECT_EQ(s->remaining_joules(0), 10.0);

  s->charge(0, 4.0);
  EXPECT_EQ(s->remaining_joules(0), 6.0);
  EXPECT_FALSE(s->depleted(0));
  EXPECT_TRUE(s->selectable(0, 0.0));

  s->charge(0, 6.0);
  EXPECT_TRUE(s->depleted(0));
  EXPECT_FALSE(s->selectable(0, 0.0));
  EXPECT_EQ(s->depleted_count(), 1u);

  // Further charges on a depleted worker do not double-count it.
  s->charge(0, 1.0);
  EXPECT_EQ(s->depleted_count(), 1u);
  // Zero/negative charges are ignored.
  s->charge(1, 0.0);
  EXPECT_EQ(s->remaining_joules(1), 10.0);
  EXPECT_EQ(s->depleted_count(), 1u);
}

TEST(CsiSubstrate, ScalesAreResidualFactorsAndCacheByRound) {
  SubstrateOptions o;
  o.csi_error = true;
  o.csi_error_std = 0.2;
  auto s = make(o);
  // csi_error alone is round-synchronous, not time-varying: no event-loop
  // involvement needed.
  EXPECT_FALSE(s->time_varying());

  auto truth = make(SubstrateOptions{});
  const auto& true_gains = truth->gains(4);
  const auto reported = s->gains(4);
  const auto scales = s->csi_scales(4);
  ASSERT_EQ(scales.size(), reported.size());
  bool any_error = false;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    // reported = truth * factor with factor clamped >= 0.1; the residual
    // scale times the reported estimate recovers the true gain.
    EXPECT_GT(reported[i], 0.0);
    EXPECT_NEAR(reported[i] * scales[i], true_gains[i], 1e-12);
    EXPECT_LE(scales[i], 10.0 + 1e-12);  // clamp bounds the residual
    any_error = any_error || scales[i] != 1.0;
  }
  EXPECT_TRUE(any_error);

  // Same round, same substrate: the cached draw, not a fresh one.
  const auto again = s->gains(4);
  EXPECT_EQ(again, reported);
  // A different round redraws the error.
  EXPECT_NE(s->gains(5), reported);
}

TEST(CsiSubstrate, DrawsAreDeterministicPerSeedAndDecorrelatedAcrossSeeds) {
  SubstrateOptions o;
  o.csi_error = true;
  auto a = make(o, 8, 11);
  auto b = make(o, 8, 11);
  auto c = make(o, 8, 12);
  EXPECT_EQ(a->gains(2), b->gains(2));
  EXPECT_NE(a->gains(2), c->gains(2));
}

TEST(ChurnSubstrate, PhasesAreDeterministicPerSeed) {
  SubstrateOptions o;
  o.churn = true;
  o.churn_on_fraction = 0.5;
  auto a = make(o, 8, 11);
  auto b = make(o, 8, 11);
  auto c = make(o, 8, 12);
  bool differs = false;
  for (std::size_t w = 0; w < 8; ++w) {
    for (double t : {10.0, 130.0, 377.0}) {
      EXPECT_EQ(a->available(w, t), b->available(w, t));
      differs = differs || a->available(w, t) != c->available(w, t);
    }
  }
  EXPECT_TRUE(differs);
}

// ----------------------------------------------------------- member gains --

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t j = 0; j < got.size(); ++j)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]), std::bit_cast<std::uint64_t>(want[j]))
        << what << " entry " << j;
}

std::vector<double> pick(const std::vector<double>& all, const std::vector<std::size_t>& members) {
  std::vector<double> out;
  for (auto m : members) out.push_back(all[m]);
  return out;
}

TEST(SubstrateMemberGains, EqualTheFullVectorOnEveryGeneratorCacheColdOrWarm) {
  constexpr std::size_t n = 500;
  for (const char* kind : {"static", "churn", "energy", "csi_error", "churn+energy+csi_error"}) {
    SubstrateOptions o;
    sim::set_substrate_kind(o, kind);
    auto s = make(o, n, 11);
    auto truth = make(o, n, 11);  // a twin whose cache the checks never share
    util::Rng rng(31);
    std::vector<double> out;
    for (std::size_t round : {3, 1, 3, 4, 1, 0}) {
      auto members = rng.sample_without_replacement(n, 40);
      std::sort(members.begin(), members.end());
      const std::vector<double> want = pick(truth->gains(round), members);
      const std::string what = std::string(kind) + " round " + std::to_string(round);

      // Cold: the cache holds the previous round (or nothing).
      s->member_gains(members, round, out);
      expect_same_bits(out, want, what + " cold");

      // Warm: gains() filled the cache for this round; member_gains leaves
      // what gains() returns unchanged.
      const std::vector<double> before = s->gains(round);
      s->member_gains(members, round, out);
      expect_same_bits(out, want, what + " warm");
      expect_same_bits(s->gains(round), before, what + " gains() after a warm call");

      // Another round while this one is cached.
      const std::size_t other = round + 7;
      s->member_gains(members, other, out);
      expect_same_bits(out, pick(truth->gains(other), members), what + " other round");
      expect_same_bits(s->gains(round), before, what + " gains() after another round");
    }
  }
}

TEST(SubstrateMemberGains, RejectUnsortedAndOutOfRangeIdsOnEveryPath) {
  for (const char* kind : {"static", "csi_error"}) {
    SubstrateOptions o;
    sim::set_substrate_kind(o, kind);
    auto s = make(o, 8, 11);
    std::vector<double> out;
    for (int warm = 0; warm < 2; ++warm) {
      if (warm) static_cast<void>(s->gains(2));
      EXPECT_THROW(s->member_gains(std::vector<std::size_t>{4, 1}, 2, out), std::invalid_argument)
          << kind;
      EXPECT_THROW(s->member_gains(std::vector<std::size_t>{1, 8}, 2, out), std::out_of_range)
          << kind;
    }
  }
}

// --------------------------------------------- loop integration fixture --

/// The loop_test fixture verbatim: the golden digests below were captured
/// on this exact configuration.
struct Fixture {
  data::TrainTest data;
  fl::FLConfig cfg;

  explicit Fixture(std::uint64_t seed = 7, std::size_t workers = 12) {
    data.train = data::make_synthetic_flat(16, {workers * 40, 6, 1.0, 0.3, seed});
    data.test = data::make_synthetic_flat(16, {240, 6, 1.0, 0.3, seed});
    util::Rng rng(seed);
    cfg.train = &data.train;
    cfg.test = &data.test;
    cfg.partition = data::partition_label_skew(data.train, workers, rng);
    cfg.model_factory = [] { return ml::make_softmax_regression(16, 6); };
    cfg.learning_rate = 0.3f;
    cfg.batch_size = 8;
    cfg.cluster.base_seconds = 6.0;
    cfg.cluster.seed = seed + 1;
    cfg.fading.seed = seed + 2;
    cfg.time_budget = 900.0;
    cfg.eval_every = 1;
    cfg.eval_samples = 240;
    cfg.eval_batch = 64;
    cfg.max_rounds = 25;
    cfg.seed = seed;
  }
};

struct MechanismCase {
  const char* label;
  const char* digest;  ///< pre-refactor golden (x86-64)
  std::function<fl::Metrics(const fl::FLConfig&)> run;
};

const std::vector<MechanismCase>& mechanism_cases() {
  using namespace fl;
  static const std::vector<MechanismCase> cases = {
      {"fedavg", "bb171646c73cf785", [](const FLConfig& c) { return FedAvg().run(c); }},
      {"airfedavg", "38c2931267c8d221", [](const FLConfig& c) { return AirFedAvg().run(c); }},
      {"dynamic", "d3d01912a3b9ba79",
       [](const FLConfig& c) {
         return DynamicAirComp(MechanismConfig{.selection_quantile = 0.5}).run(c);
       }},
      {"tifl", "faf62aad3f041464",
       [](const FLConfig& c) { return TiFL(MechanismConfig{.tiers = 3}).run(c); }},
      {"fedasync", "ff96ef9dfa60ac7a",
       [](const FLConfig& c) {
         return FedAsync(MechanismConfig{.mixing = 0.6, .damping = 0.5}).run(c);
       }},
      {"airfedga", "260d02f29dc076f1", [](const FLConfig& c) { return AirFedGA().run(c); }},
  };
  return cases;
}

/// Every lane count a digest must be invariant to.
constexpr std::size_t kLaneCounts[] = {1, 2, 4};

/// Run shape on top of the fixture's defaults.
struct Shape {
  std::size_t workers = 12;
  double base_seconds = 6.0;  ///< sim::ClusterModel base local time (x kappa in [1, 10])
  std::size_t max_rounds = 25;
};

std::string run_digest(const MechanismCase& mc, const SubstrateOptions& opts,
                       std::size_t threads, const Shape& shape = {}) {
  Fixture f(7, shape.workers);
  f.cfg.cluster.base_seconds = shape.base_seconds;
  f.cfg.max_rounds = shape.max_rounds;
  f.cfg.substrate = opts;
  f.cfg.threads = threads;
  return mc.run(f.cfg).digest();
}

// The refactor's acceptance check: with the default (static) substrate the
// loop must replay the pre-refactor event sequence exactly, so every
// mechanism reproduces its golden digest at every lane count. Off glibc
// only the invariance half runs.
TEST(SubstrateDigests, StaticSubstrateReproducesPreRefactorGoldens) {
  std::map<std::string, std::string> got;
  for (const auto& mc : mechanism_cases()) {
    std::string& reference = got[mc.label];
    for (std::size_t threads : kLaneCounts) {
      const std::string digest = run_digest(mc, SubstrateOptions{}, threads);
      if (reference.empty()) reference = digest;
      EXPECT_EQ(digest, reference) << mc.label << " @" << threads << " lanes";
    }
  }
  SKIP_UNLESS_GLIBC();
  for (const auto& mc : mechanism_cases()) EXPECT_EQ(got.at(mc.label), mc.digest) << mc.label;
}

// Realism generators must be deterministic per seed: whatever the lane
// count, the digest depends only on (scenario, seed). The churn and all kinds are also pinned to
// x86-64 goldens captured while availability still ran as one queued
// transition event per worker: they prove that waking parked cohorts from
// the availability trace replays that schedule bit for bit.
TEST(SubstrateDigests, RealismDigestsAreEngineKnobInvariant) {
  SubstrateOptions churn;
  churn.churn = true;
  churn.churn_period = 120.0;
  churn.churn_on_fraction = 0.7;

  SubstrateOptions energy;
  energy.energy = true;
  energy.energy_budget = 40.0;
  energy.energy_oma_upload = 1.0;

  SubstrateOptions csi;
  csi.csi_error = true;
  csi.csi_error_std = 0.15;

  SubstrateOptions all = churn;
  all.energy = true;
  all.energy_budget = 40.0;
  all.energy_oma_upload = 1.0;
  all.csi_error = true;
  all.csi_error_std = 0.15;

  const std::vector<std::pair<const char*, SubstrateOptions>> kinds = {
      {"churn", churn}, {"energy", energy}, {"csi_error", csi}, {"all", all}};
  const std::map<std::string, std::string> goldens = {
      {"fedavg/churn", "a61b0a24242ec204"},    {"fedavg/all", "a61b0a24242ec204"},
      {"airfedavg/churn", "277ea0d28939c290"}, {"airfedavg/all", "341b4aebb93554e3"},
      {"dynamic/churn", "02e745386dc147b4"},   {"dynamic/all", "ee57585331fa63ac"},
      {"tifl/churn", "022d02344b092db3"},      {"tifl/all", "022d02344b092db3"},
      {"fedasync/churn", "97936b2679dc1393"},  {"fedasync/all", "97936b2679dc1393"},
      {"airfedga/churn", "baf66c4425971751"},  {"airfedga/all", "5063ebe919091902"},
  };
  std::map<std::string, std::string> got;

  for (const auto& mc : mechanism_cases()) {
    for (const auto& [kind, opts] : kinds) {
      const std::string key = std::string(mc.label) + "/" + kind;
      std::string& reference = got[key];
      for (std::size_t threads : kLaneCounts) {
        const std::string digest = run_digest(mc, opts, threads);
        if (reference.empty()) reference = digest;
        EXPECT_EQ(digest, reference) << key << " @" << threads << " lanes";
      }
    }
  }
  SKIP_UNLESS_GLIBC();
  for (const auto& [key, golden] : goldens) EXPECT_EQ(got.at(key), golden) << key;
}

// Wake-heavy churn: 24 fast workers (1-10 s local times), each online for
// 6 s of every 60 s, so cohorts find nobody selectable at cycle start and
// park many times per run, and every trigger family (semi-async's buffer
// included) exercises its park/wake path. The churn+energy kind adds a
// budget small enough that whole cohorts deplete and park with no wake-up
// left. Goldens as above (x86-64, event-per-worker protocol).
TEST(SubstrateDigests, WakeHeavyChurnIsPinnedAndEngineKnobInvariant) {
  SubstrateOptions churn;
  churn.churn = true;
  churn.churn_period = 60.0;
  churn.churn_on_fraction = 0.1;

  SubstrateOptions churn_energy = churn;
  churn_energy.energy = true;
  churn_energy.energy_budget = 1.5;
  churn_energy.energy_oma_upload = 1.0;

  const Shape wake_heavy{.workers = 24, .base_seconds = 1.0, .max_rounds = 100};
  const auto semiasync = [](const fl::FLConfig& c) {
    return fl::SemiAsync(fl::MechanismConfig{.aggregate_count = 3}).run(c);
  };
  std::vector<MechanismCase> cases = mechanism_cases();
  cases.push_back({"semiasync", "", semiasync});
  const std::map<std::string, std::string> goldens = {
      {"fedavg/churn", "31f65aad9ebd92e6"},    {"fedavg/churn+energy", "6c71398aafa97c5c"},
      {"airfedavg/churn", "a577c9e1d5d542a1"}, {"airfedavg/churn+energy", "fdf548855d30dea3"},
      {"dynamic/churn", "a0b55fee817d3c4b"},   {"dynamic/churn+energy", "cd5f0156343613d0"},
      {"tifl/churn", "21feaff400abf474"},      {"tifl/churn+energy", "71f21fdfde2fe6d2"},
      {"fedasync/churn", "1495d398cc8ed3a5"},  {"fedasync/churn+energy", "1495d398cc8ed3a5"},
      {"airfedga/churn", "8b084c505f829a91"},  {"airfedga/churn+energy", "e13b6a228f38fa8f"},
      {"semiasync/churn", "899353cbd34b2065"}, {"semiasync/churn+energy", "238a5fad669d3bc6"},
  };
  const std::vector<std::pair<const char*, SubstrateOptions>> kinds = {
      {"churn", churn}, {"churn+energy", churn_energy}};
  std::map<std::string, std::string> got;

  for (const auto& mc : cases) {
    for (const auto& [kind, opts] : kinds) {
      const std::string key = std::string(mc.label) + "/" + kind;
      std::string& reference = got[key];
      for (std::size_t threads : kLaneCounts) {
        const std::string digest = run_digest(mc, opts, threads, wake_heavy);
        if (reference.empty()) reference = digest;
        EXPECT_EQ(digest, reference) << key << " @" << threads << " lanes";
      }
    }
  }
  SKIP_UNLESS_GLIBC();
  for (const auto& [key, golden] : goldens) EXPECT_EQ(got.at(key), golden) << key;
}

TEST(SubstrateDigests, RealismChangesTheTraceStaticDoesNot) {
  SubstrateOptions stress;
  stress.churn = true;
  stress.churn_period = 120.0;
  stress.churn_on_fraction = 0.6;
  stress.energy = true;
  stress.energy_budget = 30.0;
  const auto& mc = mechanism_cases().front();  // fedavg
  EXPECT_NE(run_digest(mc, stress, 1), run_digest(mc, SubstrateOptions{}, 1));
}

// ------------------------------------------------------- obs instruments --

std::uint64_t counter_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return 0;
}

const obs::MetricsSnapshot::HistogramData* find_histogram(
    const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

TEST(SubstrateObs, StressRunPopulatesDropoutDepletionAndCsiInstruments) {
  Fixture f;
  sim::set_substrate_kind(f.cfg.substrate, "churn+energy+csi_error");
  f.cfg.substrate.churn_period = 100.0;
  f.cfg.substrate.churn_on_fraction = 0.5;
  f.cfg.substrate.energy_budget = 20.0;
  f.cfg.substrate.csi_error_std = 0.2;
  const fl::Metrics m = fl::AirFedGA().run(f.cfg);

  const auto& snap = m.obs_snapshot();
  // The instruments exist whatever their value; the CSI histogram must
  // have seen one residual factor per aggregated upload.
  counter_value(snap, "substrate.dropouts");
  counter_value(snap, "substrate.depleted");
  const auto* csi = find_histogram(snap, "substrate.csi_err");
  ASSERT_NE(csi, nullptr);
  EXPECT_GT(csi->count, 0u);
  const auto* energy = find_histogram(snap, "substrate.energy_j");
  ASSERT_NE(energy, nullptr);
  EXPECT_GT(energy->count, 0u);
  // The histogram's sum is the run's AirComp transmit energy: the obs view
  // and the metric series agree on the same quantity.
  EXPECT_NEAR(energy->sum, m.total_energy(), 1e-9 * std::max(1.0, m.total_energy()));
}

TEST(SubstrateObs, EnergyDepletionGatesParticipation) {
  Fixture f;
  sim::set_substrate_kind(f.cfg.substrate, "energy");
  f.cfg.substrate.energy_budget = 0.5;  // tiny: workers deplete quickly
  const fl::Metrics m = fl::AirFedAvg().run(f.cfg);
  EXPECT_GT(counter_value(m.obs_snapshot(), "substrate.depleted"), 0u);
  // The run still terminates cleanly with whatever rounds it managed.
  EXPECT_GE(m.total_rounds(), 1u);
}

// ------------------------------------------------------- scenario layer --

scenario::ScenarioSpec base_spec() {
  scenario::ScenarioSpec s;
  s.name = "substrate_spec_test";
  s.dataset.train_samples = 200;
  s.dataset.test_samples = 50;
  s.partition.workers = 8;
  s.model.kind = "softmax";
  s.mechanisms.push_back(scenario::MechanismSpec{.kind = "fedavg"});
  return s;
}

TEST(SubstrateSpec, RoundTripsThroughJsonWithKindConditionalKnobs) {
  scenario::ScenarioSpec s = base_spec();
  s.substrate.kind = "churn+csi_error";
  s.substrate.churn_period = 123.0;
  s.substrate.churn_on_fraction = 0.4;
  s.substrate.csi_error_std = 0.25;
  const scenario::Json j = s.to_json();

  // Kind-conditional serialization: energy knobs are absent.
  const scenario::Json* su = j.find("substrate");
  ASSERT_NE(su, nullptr);
  EXPECT_NE(su->find("churn_period"), nullptr);
  EXPECT_NE(su->find("csi_error_std"), nullptr);
  EXPECT_EQ(su->find("energy_budget"), nullptr);

  const auto back = scenario::ScenarioSpec::from_json(j);
  EXPECT_EQ(back.substrate.kind, "churn+csi_error");
  EXPECT_EQ(back.substrate.churn_period, 123.0);
  EXPECT_EQ(back.substrate.churn_on_fraction, 0.4);
  EXPECT_EQ(back.substrate.csi_error_std, 0.25);
  EXPECT_EQ(scenario::config_hash(s), scenario::config_hash(back));
}

TEST(SubstrateSpec, AbsentSectionKeepsTheStaticDefault) {
  const auto fresh = scenario::ScenarioSpec::from_json(scenario::Json::parse("{}"));
  EXPECT_EQ(fresh.substrate.kind, "static");
  // And a static spec serializes a kind-only section (no dormant knobs).
  const scenario::Json j = base_spec().to_json();
  const scenario::Json* su = j.find("substrate");
  ASSERT_NE(su, nullptr);
  EXPECT_NE(su->find("kind"), nullptr);
  EXPECT_EQ(su->find("churn_period"), nullptr);
  EXPECT_EQ(su->find("energy_budget"), nullptr);
  EXPECT_EQ(su->find("csi_error_std"), nullptr);
}

TEST(SubstrateSpec, ValidateNamesTheOffendingField) {
  auto expect_error = [](scenario::ScenarioSpec s, const std::string& needle) {
    try {
      s.validate();
      FAIL() << "expected validation error mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  scenario::ScenarioSpec s = base_spec();
  s.substrate.kind = "bogus";
  expect_error(s, "substrate.kind");
  s.substrate.kind = "churn";
  s.substrate.churn_period = 0.0;
  expect_error(s, "substrate.churn_period");
  s.substrate.churn_period = 50.0;
  s.substrate.churn_on_fraction = 0.0;
  expect_error(s, "substrate.churn_on_fraction");
  s.substrate.churn_on_fraction = 0.5;
  EXPECT_NO_THROW(s.validate());
  s.substrate.kind = "energy";
  s.substrate.energy_budget = -1.0;
  expect_error(s, "substrate.energy_budget");
  s.substrate.energy_budget = 10.0;
  s.substrate.energy_oma_upload = -0.5;
  expect_error(s, "substrate.energy_oma_upload");
  s.substrate.energy_oma_upload = 0.0;
  s.substrate.kind = "csi_error";
  s.substrate.csi_error_std = -0.1;
  expect_error(s, "substrate.csi_error_std");
}

TEST(SubstrateSpec, RejectsUnknownKeysInTheSection) {
  scenario::Json j = base_spec().to_json();
  scenario::Json su = scenario::Json::object();
  su.set("kind", std::string("static"));
  su.set("churn_perid", 10.0);  // typo must fail loudly
  j.set("substrate", std::move(su));
  EXPECT_THROW(scenario::ScenarioSpec::from_json(j), std::invalid_argument);
}

TEST(SubstrateSpec, BuildLowersTheSectionIntoTheFLConfig) {
  scenario::ScenarioSpec s = base_spec();
  s.substrate.kind = "churn+energy";
  s.substrate.churn_period = 77.0;
  s.substrate.energy_budget = 33.0;
  const scenario::BuiltScenario built = scenario::build(s);
  EXPECT_TRUE(built.cfg.substrate.churn);
  EXPECT_TRUE(built.cfg.substrate.energy);
  EXPECT_FALSE(built.cfg.substrate.csi_error);
  EXPECT_EQ(built.cfg.substrate.churn_period, 77.0);
  EXPECT_EQ(built.cfg.substrate.energy_budget, 33.0);
}

}  // namespace
}  // namespace airfedga
