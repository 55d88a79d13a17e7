// Tests for the crash-safe scenario farm: byte-parity with a checked-in
// output fixture, the output files' layout (points stems, timing fields),
// --jobs and lane-count sweeps, resume semantics, kill-and-resume byte
// identity (via injected crashes in gtest death-test children),
// retry/quarantine fault isolation, watchdog timeouts, interrupt/stop
// handling, stash corruption recovery, and --shard / merge round-trips.

#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/manifest.hpp"
#include "support/golden.hpp"
#include "util/fault.hpp"

namespace airfedga::scenario {
namespace {

namespace fs = std::filesystem;

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

/// Three deterministic variants (a seed sweep) — the standard farm batch
/// for these tests.
std::vector<ScenarioSpec> tiny_variants() {
  return expand_sweeps(tiny_spec(), {{"run.seed", {Json(1), Json(2), Json(3)}}});
}

/// A scratch directory named after the top-level test process, the running
/// test and a counter that restarts with every test. Death tests run
/// "threadsafe": the child re-executes the test from the top, so it must
/// derive the same names as the parent to write where the parent then
/// looks. The process id comes from kPidEnv, which the parent sets once and
/// the exec'd child inherits; it keeps concurrent farm_test processes (two
/// build trees under one `ctest -j`) out of each other's directories.
constexpr const char* kPidEnv = "AIRFEDGA_FARM_TEST_PID";

struct TempDir {
  static std::size_t& counter() {
    static std::size_t id = 0;
    return id;
  }
  fs::path path;
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const char* pid = std::getenv(kPidEnv);
    path = fs::temp_directory_path() /
           ("airfedga_farm_test_" + std::string(pid != nullptr ? pid : "0") + "_" + info->name() +
            "_" + std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Reads results.jsonl as one parsed record per line.
std::vector<Json> read_records(const fs::path& dir) {
  std::ifstream in(dir / "results.jsonl");
  std::vector<Json> out;
  for (std::string line; std::getline(in, line);) out.push_back(Json::parse(line));
  return out;
}

/// The sorted file names under dir/points.
std::vector<std::string> points_files(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir / "points"))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

/// Asserts every output file of two result directories is byte-identical
/// (results.jsonl, summary.csv, and the full points/ set).
void expect_outputs_identical(const fs::path& a, const fs::path& b) {
  EXPECT_EQ(read_file(a / "results.jsonl"), read_file(b / "results.jsonl"));
  EXPECT_EQ(read_file(a / "summary.csv"), read_file(b / "summary.csv"));
  const std::vector<std::string> names_a = points_files(a);
  ASSERT_EQ(names_a, points_files(b));
  for (const auto& name : names_a)
    EXPECT_EQ(read_file(a / "points" / name), read_file(b / "points" / name)) << name;
}

/// Byte-stable output needs --no-timing (wall clocks vary run to run).
WriteOptions no_timing() {
  WriteOptions wo;
  wo.timing = false;
  return wo;
}

/// Every test must leave the process-global fault registry and stop flag
/// clean for later tests.
class FarmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The farm runs job and watchdog threads, and forking a multi-threaded
    // process is unsafe (TSan refuses to start threads in such a child).
    // "threadsafe" death tests fork+exec a fresh copy of the binary instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setenv(kPidEnv, std::to_string(getpid()).c_str(), /*overwrite=*/0);
    TempDir::counter() = 0;
    util::fault::disarm_all();
    farm_clear_stop();
  }
  void TearDown() override {
    util::fault::disarm_all();
    farm_clear_stop();
  }
};

/// Replaces every occurrence of `from` in `s` with `to`.
std::string replace_all(std::string s, const std::string& from, const std::string& to) {
  for (std::size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size()))
    s.replace(pos, from.size(), to);
  return s;
}

TEST_F(FarmTest, MatchesTheCheckedInOutputByteForByte) {
  SKIP_UNLESS_GLIBC();
  // tests/fixtures/farm_tiny holds what the removed legacy writer emitted
  // for tiny_variants() under --no-timing, with the git value replaced by
  // a placeholder. The farm must keep producing exactly those bytes.
  const fs::path fixture = AIRFEDGA_TEST_FIXTURES "/farm_tiny";
  TempDir dir;
  const FarmResult fr = run_farm(tiny_variants(), dir.path.string(), {}, {}, no_timing());
  EXPECT_EQ(fr.completed, 3u);
  EXPECT_EQ(fr.failed, 0u);
  EXPECT_FALSE(fr.interrupted);
  ASSERT_EQ(fr.records.size(), 3u);

  const std::string git = git_version();
  const std::string mask = "@GIT@";
  EXPECT_EQ(replace_all(read_file(dir.path / "results.jsonl"), "\"git\":\"" + git + "\"",
                        "\"git\":\"" + mask + "\""),
            read_file(fixture / "results.jsonl"));
  EXPECT_EQ(replace_all(read_file(dir.path / "summary.csv"), "," + git + ",", "," + mask + ","),
            read_file(fixture / "summary.csv"));
  const std::vector<std::string> names = points_files(dir.path);
  ASSERT_EQ(names, points_files(fixture));
  for (const auto& name : names)
    EXPECT_EQ(read_file(dir.path / "points" / name), read_file(fixture / "points" / name)) << name;
}

TEST_F(FarmTest, RecordsCarryTheDocumentedKeysAndRelativePointsPaths) {
  TempDir dir;
  const auto variants = tiny_variants();
  run_farm(variants, dir.path.string());  // timing on by default
  const std::vector<Json> recs = read_records(dir.path);
  ASSERT_EQ(recs.size(), 3u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Json& rec = recs[i];
    EXPECT_EQ(rec.at("schema_version").as_number(), kResultsSchemaVersion);
    EXPECT_EQ(rec.at("scenario").as_string(), variants[i].name);
    EXPECT_EQ(rec.at("git").as_string(), git_version());
    EXPECT_EQ(rec.at("config_hash").as_string(), config_hash(variants[i]));
    EXPECT_EQ(rec.at("digest").as_string().size(), 16u);
    EXPECT_GT(rec.at("rounds").as_number(), 0.0);
    // Timing on: wall-clock fields and the observability block are present.
    EXPECT_GT(rec.at("wall_seconds").as_number(), 0.0);
    EXPECT_TRUE(rec.at("engine_stats").contains("barrier_seconds"));
    EXPECT_TRUE(rec.at("engine_stats").contains("eval_seconds"));
    EXPECT_TRUE(rec.contains("metrics"));
    // points_csv is out_dir-relative, so result directories are relocatable.
    EXPECT_TRUE(fs::exists(dir.path / rec.at("points_csv").as_string()));
  }
  EXPECT_NE(read_file(dir.path / "summary.csv").find("wall_s"), std::string::npos);
}

TEST_F(FarmTest, NoTimingOmitsWallClockFields) {
  TempDir dir;
  run_farm(tiny_variants(), dir.path.string(), {}, {}, no_timing());
  const std::vector<Json> recs = read_records(dir.path);
  ASSERT_EQ(recs.size(), 3u);
  for (const Json& rec : recs) {
    EXPECT_FALSE(rec.contains("wall_seconds"));
    EXPECT_FALSE(rec.at("engine_stats").contains("barrier_seconds"));
    EXPECT_FALSE(rec.at("engine_stats").contains("eval_seconds"));
    EXPECT_FALSE(rec.contains("metrics"));
    // Deterministic engine counters stay.
    EXPECT_TRUE(rec.at("engine_stats").contains("barriers"));
    EXPECT_TRUE(rec.at("engine_stats").contains("evals"));
  }
  // The summary drops its wall_s column too.
  EXPECT_EQ(read_file(dir.path / "summary.csv").find("wall_s"), std::string::npos);
}

TEST_F(FarmTest, SanitizedPointsStemsDisambiguateCollisions) {
  std::vector<ScenarioSpec> variants(2, tiny_spec());
  // Distinct sweep-suffixed names that sanitize to the same stem.
  variants[0].name = "s@mechanisms.0.xi=0.1";
  variants[1].name = "s_mechanisms_0_xi_0_1";
  TempDir dir;
  run_farm(variants, dir.path.string(), {}, {}, no_timing());
  const std::vector<Json> recs = read_records(dir.path);
  ASSERT_EQ(recs.size(), 2u);
  const std::string p1 = recs[0].at("points_csv").as_string();
  const std::string p2 = recs[1].at("points_csv").as_string();
  EXPECT_NE(p1, p2);  // the collision check kept the series apart
  EXPECT_TRUE(fs::exists(dir.path / p1));
  EXPECT_TRUE(fs::exists(dir.path / p2));
  // No path escapes the points directory, whatever the scenario name held:
  // the stem has no separator of its own after sanitization.
  for (const std::string& p : {p1, p2}) {
    EXPECT_EQ(p.rfind("points/", 0), 0u);
    EXPECT_EQ(p.find('/', 7), std::string::npos);
  }

  // A second fresh run into the same directory hands out the same stems:
  // no suffix survives from the first run.
  const std::vector<std::string> first = points_files(dir.path);
  ASSERT_EQ(first.size(), 2u);
  run_farm(variants, dir.path.string(), {}, {}, no_timing());
  EXPECT_EQ(points_files(dir.path), first);
  const std::vector<Json> again = read_records(dir.path);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].at("points_csv").as_string(), p1);
  EXPECT_EQ(again[1].at("points_csv").as_string(), p2);
}

TEST_F(FarmTest, FreshRunUnderNewNamesLeavesNoStaleOutputs) {
  // A fresh run (no resume) into a used directory replaces its outputs
  // wholesale: points/ is cleared, so no series of the earlier names
  // survives next to the new ones.
  TempDir dir;
  run_farm(tiny_variants(), dir.path.string(), {}, {}, no_timing());
  const std::vector<std::string> old_points = points_files(dir.path);
  ASSERT_EQ(old_points.size(), 3u);

  auto renamed = tiny_variants();
  for (auto& v : renamed) v.name = "renamed_" + v.name;
  run_farm(renamed, dir.path.string(), {}, {}, no_timing());

  const std::vector<std::string> new_points = points_files(dir.path);
  ASSERT_EQ(new_points.size(), 3u);
  for (const std::string& name : new_points) EXPECT_EQ(name.rfind("renamed_", 0), 0u) << name;
  const std::vector<Json> recs = read_records(dir.path);
  ASSERT_EQ(recs.size(), 3u);
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_EQ(recs[i].at("scenario").as_string(), renamed[i].name);
  const std::string summary = read_file(dir.path / "summary.csv");
  EXPECT_EQ(std::count(summary.begin(), summary.end(), '\n'), 4);  // header + 3 rows
  for (std::size_t i = 0; i < renamed.size(); ++i) {
    EXPECT_NE(summary.find("," + renamed[i].name + ","), std::string::npos) << renamed[i].name;
    EXPECT_EQ(summary.find("," + tiny_variants()[i].name + ","), std::string::npos);
  }
}

TEST_F(FarmTest, ConcurrentJobsMatchSerialByteForByte) {
  // The --jobs acceptance check, library-level: a sweep run with jobs=4
  // must export byte-identical files to jobs=1 (timing off — wall clock is
  // inherently non-deterministic).
  const auto variants =
      expand_sweeps(tiny_spec(), {{"run.seed", {Json(1), Json(2), Json(3), Json(4)}}});
  TempDir serial, parallel;
  run_farm(variants, serial.path.string(), {}, {}, no_timing());
  FarmOptions fo;
  fo.jobs = 4;
  // Explicit budget so all four jobs really run concurrently (one lane
  // each) even on a single-core machine, where the default budget would
  // clamp jobs back to 1 and the test would silently re-run serially.
  fo.lane_budget = 4;
  const FarmResult fr = run_farm(variants, parallel.path.string(), {}, fo, no_timing());
  EXPECT_EQ(fr.completed, 4u);
  expect_outputs_identical(serial.path, parallel.path);
}

TEST_F(FarmTest, ThreadSweepWritesVariantMajorBitIdenticalRecords) {
  // Determinism-sweep mode: two variants x two lane counts, written in
  // variant-major order, all bit-identical.
  const auto variants = expand_sweeps(tiny_spec(), {{"run.seed", {Json(1), Json(2)}}});
  FarmOptions fo;
  fo.jobs = 2;
  fo.lane_budget = 2;  // keep both jobs concurrent on a single-core box
  fo.threads = {1, 2};
  TempDir dir;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_TRUE(fr.all_identical);
  ASSERT_EQ(fr.records.size(), 4u);
  EXPECT_EQ(fr.records[0].at("scenario").as_string(), variants[0].name);
  EXPECT_EQ(fr.records[1].at("scenario").as_string(), variants[0].name);
  EXPECT_EQ(fr.records[2].at("scenario").as_string(), variants[1].name);
  EXPECT_EQ(fr.records[3].at("scenario").as_string(), variants[1].name);
  EXPECT_EQ(fr.records[0].at("threads").as_number(), 1.0);
  EXPECT_EQ(fr.records[1].at("threads").as_number(), 2.0);
  for (const Json& rec : fr.records) EXPECT_TRUE(rec.at("bit_identical").as_bool());
  EXPECT_EQ(read_records(dir.path).size(), 4u);
}

TEST_F(FarmTest, ResumeOfACompleteRunSkipsEverythingAndRewritesIdentically) {
  const auto variants = tiny_variants();
  TempDir dir;
  run_farm(variants, dir.path.string(), {}, {}, no_timing());
  const std::string results = read_file(dir.path / "results.jsonl");
  const std::string summary = read_file(dir.path / "summary.csv");

  FarmOptions fo;
  fo.resume = true;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_EQ(fr.resumed_skips, 3u);
  EXPECT_EQ(fr.completed, 0u);
  EXPECT_EQ(read_file(dir.path / "results.jsonl"), results);
  EXPECT_EQ(read_file(dir.path / "summary.csv"), summary);
}

/// The acceptance loop: crash (injected kill) partway through the batch,
/// resume, and require byte-identical outputs vs an uninterrupted run.
void kill_resume_roundtrip(std::size_t jobs) {
  const auto variants = tiny_variants();
  TempDir ref, crashed;
  FarmOptions fo;
  fo.jobs = jobs;
  run_farm(variants, ref.path.string(), {}, fo, no_timing());

  const std::string crash_dir = crashed.path.string();
  EXPECT_EXIT(
      {
        util::fault::arm("after_variant:2");  // kill after the 2nd durable done
        FarmOptions child = fo;
        run_farm(variants, crash_dir, {}, child, no_timing());
      },
      ::testing::ExitedWithCode(util::fault::kKillExitCode), "");

  // The crash happened after (at least) two durable completions; the
  // manifest must show them and the resume must only re-run what was lost.
  // Serial runs lose exactly one variant; concurrent runs may have
  // journalled a third done between the second's journal and its fault hit.
  Manifest recovered = Manifest::open(crash_dir);
  std::size_t done = 0;
  for (const auto& r : recovered.records())
    if (r.state == "done") ++done;
  EXPECT_GE(done, 2u);
  if (jobs == 1) {
    EXPECT_EQ(done, 2u);
  }

  FarmOptions resume = fo;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, crash_dir, {}, resume, no_timing());
  EXPECT_GE(fr.resumed_skips, 2u);
  EXPECT_EQ(fr.resumed_skips + fr.completed, 3u);
  if (jobs == 1) {
    EXPECT_EQ(fr.completed, 1u);
  }
  expect_outputs_identical(ref.path, crashed.path);
}

TEST_F(FarmTest, KillAndResumeIsByteIdenticalSerial) { kill_resume_roundtrip(1); }
TEST_F(FarmTest, KillAndResumeIsByteIdenticalJobs4) { kill_resume_roundtrip(4); }

TEST_F(FarmTest, KillDuringStashWriteLosesOnlyThatVariant) {
  const auto variants = tiny_variants();
  TempDir ref, crashed;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  const std::string crash_dir = crashed.path.string();
  EXPECT_EXIT(
      {
        util::fault::arm("mid_write:stash");  // die inside the first stash write
        run_farm(variants, crash_dir, {}, {}, no_timing());
      },
      ::testing::ExitedWithCode(util::fault::kKillExitCode), "");

  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, crash_dir, {}, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 0u);  // the torn tmp stash never became durable
  EXPECT_EQ(fr.completed, 3u);
  expect_outputs_identical(ref.path, crashed.path);
}

TEST_F(FarmTest, KillDuringResultAssemblyIsRepairedByResume) {
  const auto variants = tiny_variants();
  TempDir ref, crashed;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  const std::string crash_dir = crashed.path.string();
  EXPECT_EXIT(
      {
        util::fault::arm("mid_write:results");  // die while writing results.jsonl
        run_farm(variants, crash_dir, {}, {}, no_timing());
      },
      ::testing::ExitedWithCode(util::fault::kKillExitCode), "");

  // Every variant completed durably before assembly; the resume re-runs
  // nothing and just re-assembles the (torn) output files.
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, crash_dir, {}, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 3u);
  EXPECT_EQ(fr.completed, 0u);
  expect_outputs_identical(ref.path, crashed.path);
}

TEST_F(FarmTest, ThrowingVariantIsRetriedThenQuarantinedWithoutFailingOthers) {
  const auto variants = tiny_variants();
  TempDir dir;
  util::fault::arm("variant_run:1:throw");  // variant index 1 always throws
  FarmOptions fo;
  fo.retries = 1;
  fo.backoff_base = 0.01;  // keep the test fast
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());

  EXPECT_EQ(fr.completed, 2u);
  EXPECT_EQ(fr.failed, 1u);
  EXPECT_EQ(fr.retries, 1u);
  EXPECT_FALSE(fr.interrupted);
  ASSERT_EQ(fr.statuses.size(), 3u);
  EXPECT_EQ(fr.statuses[1].state, VariantStatus::State::kFailed);
  EXPECT_EQ(fr.statuses[1].attempts, 2u);
  EXPECT_NE(fr.statuses[1].error.find("injected fault"), std::string::npos);
  EXPECT_EQ(fr.statuses[0].state, VariantStatus::State::kDone);
  EXPECT_EQ(fr.statuses[2].state, VariantStatus::State::kDone);
  // The quarantined variant is journalled failed (with the error) and
  // simply absent from the assembled outputs.
  Manifest m = Manifest::open(dir.path.string());
  EXPECT_EQ(m.state_of(1, fr.statuses[1].hash), "failed");
  EXPECT_EQ(fr.records.size(), 2u);

  // A later resume (fault cleared — it was transient environment trouble)
  // re-runs only the quarantined variant and completes the set.
  util::fault::disarm_all();
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fixed = run_farm(variants, dir.path.string(), {}, resume, no_timing());
  EXPECT_EQ(fixed.resumed_skips, 2u);
  EXPECT_EQ(fixed.completed, 1u);
  EXPECT_EQ(fixed.records.size(), 3u);
}

TEST_F(FarmTest, TransientFailureSucceedsOnRetry) {
  const auto variants = tiny_variants();
  TempDir ref, dir;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  util::fault::arm("variant_run:1:throw_once");
  FarmOptions fo;
  fo.retries = 2;
  fo.backoff_base = 0.01;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_EQ(fr.completed, 3u);
  EXPECT_EQ(fr.failed, 0u);
  EXPECT_EQ(fr.retries, 1u);
  EXPECT_EQ(fr.statuses[1].attempts, 2u);
  expect_outputs_identical(ref.path, dir.path);
}

TEST_F(FarmTest, HungVariantIsCancelledByTheWatchdogAndQuarantined) {
  // A time budget far past anything the tiny model needs, with a watchdog
  // far below its wall time: every attempt must be cancelled, quarantined,
  // and must not block the other variants.
  auto variants = tiny_variants();
  Json slow = variants[1].to_json();
  json_set_path(slow, "run.time_budget", Json(1e9));
  json_set_path(slow, "run.max_rounds", Json(100000000));
  variants[1] = ScenarioSpec::from_json(slow);

  // The watchdog bound scales with how fast a healthy variant runs here, so
  // slow builds (sanitizers) do not time out the healthy variants too.
  const double healthy_s = run_scenario(variants[0]).runs.at(0).wall_seconds;
  TempDir dir;
  FarmOptions fo;
  fo.variant_timeout = std::max(0.05, 20.0 * healthy_s);
  fo.backoff_base = 0.01;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_EQ(fr.failed, 1u);
  EXPECT_EQ(fr.completed, 2u);
  EXPECT_EQ(fr.statuses[1].state, VariantStatus::State::kFailed);
  EXPECT_NE(fr.statuses[1].error.find("timeout"), std::string::npos);
  EXPECT_EQ(fr.statuses[0].state, VariantStatus::State::kDone);
  EXPECT_EQ(fr.statuses[2].state, VariantStatus::State::kDone);
}

TEST_F(FarmTest, StopRequestInterruptsAndResumeFinishesIdentically) {
  const auto variants = tiny_variants();
  TempDir ref, dir;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  FarmOptions fo;
  fo.on_status = [](const VariantStatus&) { farm_request_stop(); };  // "Ctrl-C" after 1st
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_TRUE(fr.interrupted);
  EXPECT_GE(fr.completed, 1u);
  EXPECT_LT(fr.completed, 3u);
  EXPECT_FALSE(fs::exists(dir.path / "results.jsonl"));  // no misleading partial outputs

  farm_clear_stop();
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fin = run_farm(variants, dir.path.string(), {}, resume, no_timing());
  EXPECT_FALSE(fin.interrupted);
  EXPECT_EQ(fin.resumed_skips + fin.completed, 3u);
  expect_outputs_identical(ref.path, dir.path);
}

TEST_F(FarmTest, CorruptStashForcesExactlyThatVariantToReRun) {
  const auto variants = tiny_variants();
  TempDir ref, dir;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());
  run_farm(variants, dir.path.string(), {}, {}, no_timing());

  // Truncate variant 1's stash mid-file: the manifest still says done, but
  // the resume must detect the damage and re-run exactly that variant.
  const fs::path stash = dir.path / "farm" / "variant_000001.json";
  const std::string bytes = read_file(stash);
  {
    std::ofstream out(stash, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 2u);
  EXPECT_EQ(fr.completed, 1u);
  EXPECT_EQ(fr.statuses[1].state, VariantStatus::State::kDone);
  expect_outputs_identical(ref.path, dir.path);
}

TEST_F(FarmTest, ChangedOverridesInvalidateDoneRecords) {
  const auto variants = tiny_variants();
  TempDir dir;
  run_farm(variants, dir.path.string(), {}, {}, no_timing());

  // Same study, new time-budget override: the config hashes change, so a
  // resume must trust nothing and re-run every variant.
  RunOverrides ov;
  ov.time_budget = 150.0;
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, dir.path.string(), ov, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 0u);
  EXPECT_EQ(fr.completed, 3u);
}

TEST_F(FarmTest, ShardedRunsMergeIntoTheUnshardedBytes) {
  const auto variants = tiny_variants();
  TempDir ref, s1, s2, merged;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  FarmOptions shard1;
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const FarmResult r1 = run_farm(variants, s1.path.string(), {}, shard1, no_timing());
  EXPECT_EQ(r1.completed, 2u);  // variants 0 and 2
  FarmOptions shard2;
  shard2.shard_index = 2;
  shard2.shard_count = 2;
  const FarmResult r2 = run_farm(variants, s2.path.string(), {}, shard2, no_timing());
  EXPECT_EQ(r2.completed, 1u);  // variant 1

  const FarmResult m = merge_results(merged.path.string(),
                                     {s1.path.string(), s2.path.string()}, no_timing());
  EXPECT_EQ(m.completed, 3u);
  ASSERT_EQ(m.statuses.size(), 3u);
  for (const auto& st : m.statuses) EXPECT_EQ(st.state, VariantStatus::State::kDone);
  expect_outputs_identical(ref.path, merged.path);
}

TEST_F(FarmTest, MergeReportsMissingVariantsAndRejectsConflicts) {
  const auto variants = tiny_variants();
  TempDir s1, merged;
  FarmOptions shard1;
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  run_farm(variants, s1.path.string(), {}, shard1, no_timing());

  // Only shard 1 present: variant 1 is missing and must be visible as such.
  const FarmResult m =
      merge_results(merged.path.string(), {s1.path.string()}, no_timing());
  EXPECT_EQ(m.completed, 2u);
  ASSERT_EQ(m.statuses.size(), 3u);
  EXPECT_EQ(m.statuses[1].state, VariantStatus::State::kNotRun);

  // A shard of a *different* study claiming the same variant indexes must
  // be refused, not silently mixed in. (Same shard 1/2 as s1, other seeds:
  // variants 0 and 2 collide with different config hashes.)
  TempDir other;
  auto other_variants = expand_sweeps(tiny_spec(), {{"run.seed", {Json(7), Json(8), Json(9)}}});
  run_farm(other_variants, other.path.string(), {}, shard1, no_timing());
  TempDir conflict;
  EXPECT_THROW(
      merge_results(conflict.path.string(), {s1.path.string(), other.path.string()}, no_timing()),
      std::runtime_error);
}

TEST_F(FarmTest, FarmCountersAccumulateInTheGlobalRegistry) {
  const auto variants = tiny_variants();
  TempDir dir;
  util::fault::arm("variant_run:0:throw_once");
  FarmOptions fo;
  fo.retries = 1;
  fo.backoff_base = 0.01;
  run_farm(variants, dir.path.string(), {}, fo, no_timing());
  const obs::MetricsSnapshot snap = obs::global_registry().snapshot();
  std::uint64_t retries = 0;
  for (const auto& [name, value] : snap.counters)
    if (name == "farm.retries") retries = value;
  EXPECT_GE(retries, 1u);
}

}  // namespace
}  // namespace airfedga::scenario
