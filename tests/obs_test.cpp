// Tests for the observability layer: counter/histogram semantics, the
// registry, Chrome trace JSON well-formedness, the span report, the
// digest-invariance contract (tracing is read-only — Metrics::digest() is
// bit-identical with tracing off or on, at every lane count), and the
// zero-steady-state-allocation contract while tracing is enabled.
//
// Ordering note: obs::enable() pins the process-wide trace epoch and
// set_enabled() toggles collection globally, so every test that turns
// tracing on restores set_enabled(false) before returning.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/json.hpp"
#include "scenario/runner.hpp"
#include "support/alloc_hook.hpp"

namespace airfedga {
namespace {

/// Same deliberately tiny scenario the runner tests use: seconds of wall
/// time end to end, enough rounds to exercise the full engine.
scenario::ScenarioSpec tiny_spec() {
  scenario::ScenarioSpec s;
  s.name = "tiny";
  s.dataset = {"mnist_like", 120, 40, 1};
  s.model = {.kind = "softmax", .input_dim = 784, .num_classes = 10};
  s.partition.workers = 6;
  s.learning_rate = 0.5;
  s.batch_size = 0;
  s.time_budget = 200.0;
  s.max_rounds = 6;
  s.eval_every = 2;
  s.eval_samples = 40;
  s.threads = 1;
  s.mechanisms = {scenario::MechanismSpec{}};  // airfedga
  return s;
}

/// RAII guard: restores tracing to "off" however the test exits.
struct TracingOff {
  ~TracingOff() { obs::set_enabled(false); }
};

TEST(ObsCounter, AddSetReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsHistogram, BucketPlacementAndOverflow) {
  obs::Histogram h({1.0, 4.0, 16.0});
  h.record(0.0);   // <= 1
  h.record(1.0);   // <= 1 (boundary is inclusive)
  h.record(2.0);   // <= 4
  h.record(16.0);  // <= 16
  h.record(17.0);  // overflow
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 36.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (std::uint64_t c : h.counts()) EXPECT_EQ(c, 0u);
}

TEST(ObsRegistry, InstrumentsAreAddressStableAndSnapshotSorted) {
  obs::Registry r;
  obs::Counter& a = r.counter("zebra");
  obs::Counter& b = r.counter("zebra");
  EXPECT_EQ(&a, &b);  // hot paths cache the reference once
  r.counter("apple").add(3);
  a.add(1);

  obs::Histogram& h1 = r.histogram("depth", {1.0, 2.0});
  obs::Histogram& h2 = r.histogram("depth", {99.0});  // bounds ignored after first
  EXPECT_EQ(&h1, &h2);
  ASSERT_EQ(h2.bounds().size(), 2u);
  h1.record(1.5);

  const obs::MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "apple");  // name-sorted
  EXPECT_EQ(snap.counters[0].second, 3u);
  EXPECT_EQ(snap.counters[1].first, "zebra");
  EXPECT_EQ(snap.counters[1].second, 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "depth");
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.histograms[0].counts.size(), 3u);
  EXPECT_EQ(snap.histograms[0].counts[1], 1u);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(obs::MetricsSnapshot{}.empty());
}

TEST(ObsTrace, DisabledHooksRecordNothing) {
  obs::set_enabled(false);
  obs::reset_for_testing();
  {
    obs::Span s("test", "test.disabled");
    obs::instant("test", "test.disabled_instant");
  }
  std::ostringstream os;
  obs::write_chrome_json(os);
  const scenario::Json j = scenario::Json::parse(os.str());
  for (const auto& e : j.at("traceEvents").as_array())
    EXPECT_EQ(e.at("ph").as_string(), "M");  // only thread metadata, no events
}

TEST(ObsTrace, ChromeJsonShapeAndThreadNames) {
  TracingOff guard;
  obs::reset_for_testing();
  obs::name_this_thread("obs-test");
  obs::enable();
  {
    obs::Span outer("test", "test.outer");
    obs::Span inner("test", "test.inner");
    obs::instant("test", "test.tick", "depth", 3);
  }
  obs::Span skipped("test", "test.skipped", /*cond=*/false);  // stays disarmed
  obs::set_enabled(false);

  std::ostringstream os;
  obs::write_chrome_json(os);
  const scenario::Json j = scenario::Json::parse(os.str());
  const auto& events = j.at("traceEvents").as_array();

  std::size_t spans = 0, instants = 0;
  bool named = false, arg_seen = false;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i") << ph;
    if (ph == "M") {
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      named = named || e.at("args").at("name").as_string() == "obs-test";
    } else if (ph == "X") {
      ++spans;
      EXPECT_TRUE(e.contains("dur"));
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      const std::string& name = e.at("name").as_string();
      EXPECT_TRUE(name == "test.outer" || name == "test.inner") << name;
      EXPECT_NE(name, "test.skipped");
    } else {
      ++instants;
      EXPECT_EQ(e.at("name").as_string(), "test.tick");
      EXPECT_EQ(e.at("args").at("depth").as_number(), 3.0);
      arg_seen = true;
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_TRUE(named);
  EXPECT_TRUE(arg_seen);
}

TEST(ObsTrace, ReportSelfTimeNeverExceedsTotal) {
  TracingOff guard;
  obs::reset_for_testing();
  obs::enable();
  for (int i = 0; i < 3; ++i) {
    obs::Span outer("test", "test.parent");
    obs::Span inner("test", "test.child");
    volatile int sink = 0;
    for (int k = 0; k < 1000; ++k) sink = sink + k;
  }
  obs::set_enabled(false);

  const std::vector<obs::SpanStat> stats = obs::aggregate_spans();
  bool parent_seen = false;
  for (const auto& s : stats) {
    EXPECT_LE(s.self_ns, s.total_ns) << s.name;
    if (s.name == "test.parent") {
      parent_seen = true;
      EXPECT_EQ(s.count, 3u);
    }
  }
  EXPECT_TRUE(parent_seen);

  std::ostringstream os;
  obs::print_report(os);
  EXPECT_NE(os.str().find("test.parent"), std::string::npos);
}

TEST(ObsTrace, DigestBitIdenticalTracingOffOrOn) {
  TracingOff guard;
  const std::vector<std::size_t> lane_counts = {1, 2, 4};

  // Untraced digests first: enable() is sticky for the process, so the
  // baseline must run before tracing ever turns on in this binary's
  // scenario runs.
  obs::set_enabled(false);
  std::vector<std::string> untraced;
  for (std::size_t t : lane_counts) {
    scenario::ScenarioSpec s = tiny_spec();
    s.threads = t;
    const scenario::ScenarioResult r = scenario::run_scenario(s);
    ASSERT_EQ(r.runs.size(), 1u);
    untraced.push_back(r.runs[0].metrics.digest());
  }
  ASSERT_EQ(untraced[0], untraced[1]);  // engine determinism baseline
  ASSERT_EQ(untraced[1], untraced[2]);

  obs::reset_for_testing();
  obs::enable();
  for (std::size_t i = 0; i < lane_counts.size(); ++i) {
    scenario::ScenarioSpec s = tiny_spec();
    s.threads = lane_counts[i];
    const scenario::ScenarioResult r = scenario::run_scenario(s);
    ASSERT_EQ(r.runs.size(), 1u);
    EXPECT_EQ(r.runs[0].metrics.digest(), untraced[i])
        << "tracing changed the digest at threads=" << lane_counts[i];
    // Tracing also populates the metrics snapshot the runner serializes.
    EXPECT_FALSE(r.runs[0].metrics.obs_snapshot().empty());
  }
  obs::set_enabled(false);

  // The set-up spans inside scenario::build: once per traced run.
  for (const char* name : {"setup.dataset", "setup.partition", "setup.mechanisms"}) {
    std::size_t count = 0;
    for (const obs::SpanStat& st : obs::aggregate_spans())
      if (st.name == name) count = st.count;
    EXPECT_EQ(count, lane_counts.size()) << name;
  }
}

TEST(ObsTrace, SpecTraceKnobLowersToFLConfig) {
  scenario::ScenarioSpec s = tiny_spec();
  s.trace = true;
  const scenario::Json j = s.to_json();
  EXPECT_TRUE(j.at("run").at("trace").as_bool());
  const scenario::ScenarioSpec back = scenario::ScenarioSpec::from_json(j);
  EXPECT_TRUE(back.trace);
  scenario::BuiltScenario built = scenario::build(back);
  EXPECT_TRUE(built.cfg.trace);
}

TEST(ObsTrace, SteadyStateRecordingDoesNotAllocate) {
  TracingOff guard;
  obs::reset_for_testing();
  obs::enable();

  // Warm-up touches this thread's ring (allocated once at first event) so
  // the measured window below is pure steady state.
  { obs::Span warm("test", "test.warm"); }
  obs::instant("test", "test.warm_instant");

  const std::size_t before = alloc_hook::stats().count;
  for (int i = 0; i < 10000; ++i) {
    obs::Span s("test", "test.steady");
    obs::instant("test", "test.steady_instant", "i", i);
  }
  const std::size_t after = alloc_hook::stats().count;
  EXPECT_EQ(after, before) << "span/instant recording allocated on the hot path";

  // Counter and histogram updates are allocation-free too once resolved.
  obs::Registry r;
  obs::Counter& c = r.counter("steady");
  obs::Histogram& h = r.histogram("steady_hist", {1.0, 10.0, 100.0});
  const std::size_t before2 = alloc_hook::stats().count;
  for (int i = 0; i < 10000; ++i) {
    c.add();
    h.record(static_cast<double>(i % 128));
  }
  EXPECT_EQ(alloc_hook::stats().count, before2) << "metric updates allocated";
  obs::set_enabled(false);
}

}  // namespace
}  // namespace airfedga
