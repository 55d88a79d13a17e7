// Tests for the scenario runner: sweep-path editing, grid expansion,
// end-to-end scenario execution, the thread-determinism sweep, the JSONL
// record, the Metrics digest, and the CSV writers' directory handling.
// The result files themselves are tested through run_farm in farm_test.

#include "scenario/runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "util/table.hpp"

namespace airfedga::scenario {
namespace {

namespace fs = std::filesystem;

/// A deliberately tiny scenario (seconds of wall time) for end-to-end
/// runner tests.
ScenarioSpec tiny_spec() {
  ScenarioSpec s;
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
  s.mechanisms = {MechanismSpec{}};  // airfedga
  return s;
}

struct TempDir {
  static std::size_t next_id() {
    static std::size_t id = 0;
    return id++;  // distinct directory per instance, not just per process
  }
  fs::path path;
  TempDir() : path(fs::temp_directory_path() /
                   ("airfedga_runner_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(next_id()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(JsonSetPath, EditsNestedFieldsAndIndexes) {
  Json j = tiny_spec().to_json();
  json_set_path(j, "run.seed", Json(99));
  json_set_path(j, "mechanisms.0.xi", Json(0.7));
  const ScenarioSpec s = ScenarioSpec::from_json(j);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_DOUBLE_EQ(s.mechanisms.at(0).xi, 0.7);
}

TEST(JsonSetPath, RejectsBadPathsWithContext) {
  Json j = tiny_spec().to_json();
  try {
    json_set_path(j, "run.sed", Json(1));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no key \"sed\" under \"run\""), std::string::npos);
  }
  EXPECT_THROW(json_set_path(j, "mechanisms.5.xi", Json(1)), std::invalid_argument);
  EXPECT_THROW(json_set_path(j, "run.seed.deeper", Json(1)), std::invalid_argument);
  EXPECT_THROW(json_set_path(j, "", Json(1)), std::invalid_argument);
}

TEST(ExpandSweeps, CartesianProductWithNameSuffixes) {
  const ScenarioSpec base = tiny_spec();
  std::vector<SweepAxis> axes = {
      {"run.seed", {Json(1), Json(2), Json(3)}},
      {"mechanisms.0.xi", {Json(0.2), Json(0.4)}},
  };
  const auto variants = expand_sweeps(base, axes);
  ASSERT_EQ(variants.size(), 6u);
  EXPECT_EQ(variants[0].seed, 1u);
  EXPECT_DOUBLE_EQ(variants[0].mechanisms[0].xi, 0.2);
  EXPECT_DOUBLE_EQ(variants[1].mechanisms[0].xi, 0.4);
  EXPECT_EQ(variants[5].seed, 3u);
  EXPECT_DOUBLE_EQ(variants[5].mechanisms[0].xi, 0.4);
  EXPECT_EQ(variants[0].name, "tiny@run.seed=1@mechanisms.0.xi=0.2");

  // No axes: the base comes back unchanged.
  const auto none = expand_sweeps(base, {});
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].name, "tiny");

  // A sweep that produces an invalid spec is rejected at expansion time.
  std::vector<SweepAxis> bad = {{"train.learning_rate", {Json(-1.0)}}};
  EXPECT_THROW(expand_sweeps(base, bad), std::invalid_argument);
}

TEST(Runner, RunScenarioProducesMetricsAndAppliesOverrides) {
  RunOverrides ov;
  ov.seed = 7;
  ov.time_budget = 150.0;
  const ScenarioResult r = run_scenario(tiny_spec(), ov);
  EXPECT_EQ(r.spec.seed, 7u);
  EXPECT_DOUBLE_EQ(r.spec.time_budget, 150.0);
  ASSERT_EQ(r.runs.size(), 1u);
  EXPECT_EQ(r.runs[0].mechanism, "Air-FedGA");
  EXPECT_FALSE(r.runs[0].metrics.empty());
  EXPECT_GT(r.runs[0].wall_seconds, 0.0);
  EXPECT_EQ(r.hash, config_hash(r.spec));  // hash covers the overridden spec
  EXPECT_NE(r.hash, config_hash(tiny_spec()));
}

TEST(Runner, ThreadSweepIsBitIdenticalAcrossLaneCounts) {
  const auto sweep = run_thread_sweep(tiny_spec(), {1, 2});
  ASSERT_EQ(sweep.by_threads.size(), 2u);
  EXPECT_TRUE(sweep.all_identical);
  for (const auto& result : sweep.by_threads)
    for (const auto& run : result.runs) {
      ASSERT_TRUE(run.bit_identical.has_value());
      EXPECT_TRUE(*run.bit_identical);
    }
  // Same digest across lane counts — the digest is the bit-identical
  // fingerprint.
  EXPECT_EQ(sweep.by_threads[0].runs[0].metrics.digest(),
            sweep.by_threads[1].runs[0].metrics.digest());
  // Different seeds produce different digests (the digest actually
  // discriminates).
  RunOverrides other_seed;
  other_seed.seed = 1234;
  const ScenarioResult r = run_scenario(tiny_spec(), other_seed);
  EXPECT_NE(r.runs[0].metrics.digest(), sweep.by_threads[0].runs[0].metrics.digest());
}

TEST(Runner, ResultRecordCarriesBitIdenticalWhenSet) {
  ScenarioResult r = run_scenario(tiny_spec());
  r.runs[0].bit_identical = false;
  const Json rec = result_record(r, r.runs[0], "g", "p.csv");
  EXPECT_FALSE(rec.at("bit_identical").as_bool());
  r.runs[0].bit_identical.reset();
  EXPECT_FALSE(result_record(r, r.runs[0], "g", "p.csv").contains("bit_identical"));
}

TEST(CsvWriters, CreateMissingDirectoriesAndFailLoudly) {
  TempDir tmp;
  // Nested directory that does not exist yet: created on demand.
  const fs::path nested = tmp.path / "a" / "b" / "metrics.csv";
  const ScenarioResult r = run_scenario(tiny_spec());
  EXPECT_NO_THROW(r.runs[0].metrics.write_csv(nested.string()));
  EXPECT_TRUE(fs::exists(nested));

  util::Table t({"x"});
  t.add_row({"1"});
  const fs::path nested2 = tmp.path / "c" / "table.csv";
  EXPECT_NO_THROW(t.write_csv(nested2.string()));
  EXPECT_TRUE(fs::exists(nested2));

  // A path whose "parent directory" is a regular file cannot be created:
  // the error must name the problem instead of silently writing nothing.
  const fs::path clash = tmp.path / "a" / "b" / "metrics.csv" / "oops.csv";
  try {
    r.runs[0].metrics.write_csv(clash.string());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("Metrics::write_csv"), std::string::npos);
  }
  try {
    t.write_csv(clash.string());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("Table::write_csv"), std::string::npos);
  }
}

TEST(MetricsDigest, MatchesBitIdenticalSemantics) {
  const ScenarioResult a = run_scenario(tiny_spec());
  const ScenarioResult b = run_scenario(tiny_spec());
  ASSERT_TRUE(a.runs[0].metrics.bit_identical(b.runs[0].metrics));
  EXPECT_EQ(a.runs[0].metrics.digest(), b.runs[0].metrics.digest());

  fl::Metrics empty;
  EXPECT_EQ(empty.digest().size(), 16u);
  EXPECT_NE(empty.digest(), a.runs[0].metrics.digest());
}

}  // namespace
}  // namespace airfedga::scenario
