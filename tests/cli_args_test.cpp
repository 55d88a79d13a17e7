// Tests for the CLI parsing layer (src/scenario/cli.*): locale-independent
// numeric parsing via std::from_chars, run/run-dir flag parsing including
// --jobs/--no-timing and both --sweep spellings, checked-in study
// documents with a "sweeps" object, and scenario-directory listing.

#include "scenario/cli.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <clocale>
#include <filesystem>
#include <fstream>

namespace airfedga::scenario::cli {
namespace {

namespace fs = std::filesystem;

TEST(ParsePositiveDouble, AcceptsPlainAndScientificForms) {
  EXPECT_DOUBLE_EQ(parse_positive_double("1.5", "x"), 1.5);
  EXPECT_DOUBLE_EQ(parse_positive_double("2e3", "x"), 2000.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("0.001", "x"), 0.001);
}

TEST(ParsePositiveDouble, RejectsGarbageSignsAndNonFinite) {
  // Trailing garbage is the historical failure mode of strtod-based
  // parsing: "1500x" silently became 1500. Every token must parse fully.
  EXPECT_THROW(parse_positive_double("1.5x", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double("1,5", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double("", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double(" 1", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double("0x10", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double("-1", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double("0", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double("inf", "x"), std::invalid_argument);
  EXPECT_THROW(parse_positive_double("nan", "x"), std::invalid_argument);
}

TEST(ParsePositiveDouble, IgnoresTheCLocale) {
  // Under a comma-decimal locale, strtod("1.5") stops at the '.' (and
  // would accept "1,5"); from_chars must not care. Skip silently when no
  // such locale is installed in the environment.
  const char* old = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (old == nullptr) GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  EXPECT_DOUBLE_EQ(parse_positive_double("1.5", "x"), 1.5);
  EXPECT_THROW(parse_positive_double("1,5", "x"), std::invalid_argument);
  std::setlocale(LC_NUMERIC, "C");
}

TEST(ParseCount, RejectsSignsAndGarbage) {
  EXPECT_EQ(parse_count("42", "x"), 42u);
  EXPECT_THROW(parse_count("", "x"), std::invalid_argument);
  EXPECT_THROW(parse_count("-1", "x"), std::invalid_argument);
  EXPECT_THROW(parse_count("12x", "x"), std::invalid_argument);
  EXPECT_THROW(parse_count("1234567890123456789", "x"), std::invalid_argument);  // 19 digits
}

TEST(ParseSweepAxis, SplitsPathAndJsonValues) {
  const SweepAxis axis = parse_sweep_axis("mechanisms.0.xi=0,0.1,iid", "--sweep");
  EXPECT_EQ(axis.path, "mechanisms.0.xi");
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_DOUBLE_EQ(axis.values[0].as_number(), 0.0);
  EXPECT_DOUBLE_EQ(axis.values[1].as_number(), 0.1);
  EXPECT_EQ(axis.values[2].as_string(), "iid");  // non-JSON tokens stay strings

  EXPECT_THROW(parse_sweep_axis("nopath", "--sweep"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_axis("=1,2", "--sweep"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_axis("p=1,,2", "--sweep"), std::invalid_argument);
}

TEST(ParseRunArgs, ParsesEveryFlagAndBothSweepSpellings) {
  const RunArgs ra = parse_run_args({"fig08_xi_sweep", "--seed=7", "--threads=1,2,4",
                                     "--time-budget=150", "--jobs=4", "--no-timing",
                                     "--out=results", "--sweep", "mechanisms.0.xi=0,0.3",
                                     "--sweep=run.seed=1,2"});
  ASSERT_EQ(ra.sources.size(), 1u);
  EXPECT_EQ(ra.sources[0], "fig08_xi_sweep");
  EXPECT_EQ(ra.overrides.seed, 7u);
  EXPECT_DOUBLE_EQ(*ra.overrides.time_budget, 150.0);
  EXPECT_EQ(ra.threads, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(ra.jobs, 4u);
  EXPECT_FALSE(ra.timing);
  EXPECT_EQ(ra.out_dir, "results");
  ASSERT_EQ(ra.sweeps.size(), 2u);
  EXPECT_EQ(ra.sweeps[0].path, "mechanisms.0.xi");
  EXPECT_EQ(ra.sweeps[1].path, "run.seed");
}

TEST(ParseRunArgs, DefaultsAndErrors) {
  const RunArgs ra = parse_run_args({"scenario.json"});
  EXPECT_EQ(ra.jobs, 1u);
  EXPECT_TRUE(ra.timing);
  EXPECT_EQ(ra.out_dir, "scenario_results");
  EXPECT_TRUE(ra.threads.empty());

  EXPECT_THROW(parse_run_args({"--jobs=0"}), std::invalid_argument);
  EXPECT_THROW(parse_run_args({"--jobs=two"}), std::invalid_argument);
  EXPECT_THROW(parse_run_args({"--threads=0"}), std::invalid_argument);
  EXPECT_THROW(parse_run_args({"--time-budget=1500x"}), std::invalid_argument);
  EXPECT_THROW(parse_run_args({"--sweep"}), std::invalid_argument);
  EXPECT_THROW(parse_run_args({"--frobnicate"}), std::invalid_argument);
  EXPECT_THROW(parse_run_args({"--append"}), std::invalid_argument);  // removed flag
  EXPECT_THROW(parse_run_args({"--out="}), std::invalid_argument);
}

TEST(ParseStudy, PlainSpecHasNoAxes) {
  Json j = Json::parse(R"({"name": "plain", "partition": {"workers": 4}})");
  const Study s = parse_study(j);
  EXPECT_EQ(s.spec.name, "plain");
  EXPECT_EQ(s.spec.partition.workers, 4u);
  EXPECT_TRUE(s.sweeps.empty());
}

TEST(ParseStudy, SweepsObjectBecomesAxesInFileOrder) {
  Json j = Json::parse(R"({
    "name": "study",
    "sweeps": { "run.seed": [1, 2], "mechanisms.0.xi": [0.1] },
    "mechanisms": [{ "kind": "airfedga" }]
  })");
  const Study s = parse_study(j);
  EXPECT_EQ(s.spec.name, "study");
  ASSERT_EQ(s.sweeps.size(), 2u);
  EXPECT_EQ(s.sweeps[0].path, "run.seed");
  ASSERT_EQ(s.sweeps[0].values.size(), 2u);
  EXPECT_EQ(s.sweeps[1].path, "mechanisms.0.xi");

  // The grid expands over the spec exactly like CLI --sweep axes would.
  const auto variants = expand_sweeps(s.spec, s.sweeps);
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_EQ(variants[0].seed, 1u);
  EXPECT_EQ(variants[1].seed, 2u);
}

TEST(ParseStudy, RejectsMalformedSweeps) {
  EXPECT_THROW(parse_study(Json::parse(R"({"sweeps": [1, 2]})")), std::invalid_argument);
  EXPECT_THROW(parse_study(Json::parse(R"({"sweeps": {"run.seed": []}})")),
               std::invalid_argument);
  EXPECT_THROW(parse_study(Json::parse(R"({"sweeps": {"run.seed": 1}})")),
               std::invalid_argument);
  // Unknown spec keys are still rejected once "sweeps" is stripped.
  EXPECT_THROW(parse_study(Json::parse(R"({"sweeps": {}, "nope": 1})")), std::exception);
}

TEST(ListScenarioFiles, SortedJsonOnlyAndLoudWhenEmpty) {
  const fs::path dir = fs::temp_directory_path() /
                       ("airfedga_cli_args_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "nested");
  std::ofstream(dir / "b_study.json") << "{}";
  std::ofstream(dir / "a_study.json") << "{}";
  std::ofstream(dir / "notes.txt") << "not a scenario";
  std::ofstream(dir / "nested" / "c_study.json") << "{}";  // not listed: direct children only

  const auto files = list_scenario_files(dir.string());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(fs::path(files[0]).filename(), "a_study.json");
  EXPECT_EQ(fs::path(files[1]).filename(), "b_study.json");

  EXPECT_THROW(list_scenario_files((dir / "missing").string()), std::invalid_argument);
  EXPECT_THROW(list_scenario_files((dir / "notes.txt").string()), std::invalid_argument);

  // Handing a directory to `run` (instead of run-dir) must say so, not
  // fall through to a bare JSON parse error on the empty read.
  try {
    load_study(dir.string());
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run-dir"), std::string::npos);
  }
  fs::remove_all(dir);
  EXPECT_THROW(list_scenario_files(dir.string()), std::invalid_argument);
}

}  // namespace
}  // namespace airfedga::scenario::cli
