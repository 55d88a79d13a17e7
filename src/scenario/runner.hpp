#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fl/metrics.hpp"
#include "scenario/json.hpp"
#include "scenario/spec.hpp"

namespace airfedga::scenario {

/// CLI-level overrides applied to a spec before running (seed, lane count,
/// virtual-time budget). Absent fields leave the spec untouched.
struct RunOverrides {
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> threads;
  std::optional<double> time_budget;
};

/// One sweep axis: a dotted path into the spec's JSON form plus the values
/// to grid over (e.g. {"mechanisms.0.xi", [0, 0.1, 0.3]}).
struct SweepAxis {
  std::string path;
  std::vector<Json> values;
};

/// Sets `value` at a dotted `path` inside `root` ("run.seed",
/// "mechanisms.0.xi"; integer segments index arrays). Throws
/// std::invalid_argument naming the failing segment when the path does not
/// resolve — creating new keys is deliberately not allowed, so a typo
/// cannot silently add an ignored knob (from_json would also reject it).
void json_set_path(Json& root, const std::string& path, Json value);

/// Cartesian product of `axes` applied to `base`: every combination yields
/// one variant spec (validated). With no axes, returns just `base`. The
/// returned specs carry a "name" suffixed with the swept assignments
/// (e.g. "fig08_xi_sweep@mechanisms.0.xi=0.1").
std::vector<ScenarioSpec> expand_sweeps(const ScenarioSpec& base,
                                        const std::vector<SweepAxis>& axes);

/// Result of running one mechanism of one scenario variant.
struct MechanismResult {
  std::string mechanism;     ///< display name ("Air-FedGA", ...)
  fl::Metrics metrics;       ///< full recorded series
  double wall_seconds = 0.0; ///< real time the run took
  /// True when a multi-lane-count check ran and this run matched the
  /// first lane count bit for bit; unset (empty) otherwise.
  std::optional<bool> bit_identical;
};

/// All mechanism runs of one scenario variant.
struct ScenarioResult {
  ScenarioSpec spec;
  std::string hash;  ///< config_hash(spec)
  std::vector<MechanismResult> runs;
};

/// Runs every mechanism of `spec` (after applying `ov`) serially on the
/// configured lane count and returns the per-mechanism results.
///
/// `lane_override` (when nonzero) caps the *execution* lane count without
/// touching the recorded spec: run_farm uses it to apply the lane budget
/// under `--jobs` (util::lane_budget_share). Because the engine is
/// bit-deterministic for every lane count, the override never changes the
/// metrics — only wall time — so the recorded `spec.threads` stays the
/// configured value and result files stay byte-stable across job counts.
///
/// `cancel` (when non-null) is handed to the engine as FLConfig::cancel: a
/// set token makes the run throw fl::RunCancelled at the next event.
ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOverrides& ov = {},
                            std::size_t lane_override = 0,
                            const std::atomic<bool>* cancel = nullptr);

/// Determinism sweep: runs `spec` once per lane count in `threads` and
/// checks every mechanism's metrics are bit-identical across lane counts
/// (the execution engine's contract). Each returned ScenarioResult is one
/// lane count, with `bit_identical` set on every run (the first lane count
/// is the baseline and reports true). `all_identical` is the conjunction.
struct ThreadSweepResult {
  std::vector<ScenarioResult> by_threads;
  bool all_identical = true;
};
ThreadSweepResult run_thread_sweep(const ScenarioSpec& spec,
                                   const std::vector<std::size_t>& threads,
                                   const RunOverrides& ov = {},
                                   const std::atomic<bool>* cancel = nullptr);

/// `git describe --always --dirty --tags` of the working tree, or
/// "unknown" when git or the repository is unavailable.
std::string git_version();

/// Schema version stamped into every results.jsonl record. Bump whenever a
/// field is added, removed, or changes meaning, and document the change in
/// docs/SCENARIOS.md. Version 2 = first stamped schema (v1 records carry no
/// `schema_version` key).
inline constexpr int kResultsSchemaVersion = 2;

/// How the farm writes wall-clock fields.
struct WriteOptions {
  /// false: omit wall-clock fields (wall_seconds, engine_stats.*_seconds,
  /// the metrics block) so the output is byte-identical across runs,
  /// --jobs values, lane counts and glibc builds (verified on x86-64, not
  /// yet on arm64). Neither the random streams (src/util/rng.hpp) nor the
  /// GEMM's rounding (src/ml/gemm.cpp) depends on the standard library or
  /// the ISA; only another libm's log/sqrt/pow can move a digest.
  /// Deterministic counters (engine_stats.barriers/evals) stay.
  bool timing = true;
};

/// The JSONL record for one run (exposed for tests).
Json result_record(const ScenarioResult& scenario, const MechanismResult& run,
                   const std::string& git, const std::string& points_csv,
                   const WriteOptions& opts = {});

// ---------------------------------------------------------------------------
// Crash-safe scenario farm (docs/SCENARIOS.md "Crash-safe farm").
//
// run_farm is the only result writer: every variant transition is
// journalled to out_dir/manifest.jsonl, every finished variant's results
// are stashed durably under out_dir/farm/, and the output files are
// *assembled from the stashes* in variant order:
//   results.jsonl  — one JSON object per (variant, mechanism) run:
//                    schema_version, scenario, config_hash, git, mechanism,
//                    seed, threads, digest, bit_identical, summary metrics,
//                    EngineStats, and the path of the per-run points CSV
//   summary.csv    — the same summary rows as CSV
//   points/<scenario>_<mechanism>_t<threads>.csv — full metric series
//     (scenario/mechanism sanitized to [A-Za-z0-9_-]; colliding sanitized
//     stems get a deterministic _2, _3, ... suffix; recorded in the JSONL
//     relative to out_dir so result directories are relocatable)
// Uninterrupted runs, resumes and merges share that single assembly path,
// so a killed-and-resumed batch re-emits the output files byte-identically
// (with WriteOptions::timing false; wall clocks vary).
// ---------------------------------------------------------------------------

/// Fate of one variant after a farm run.
struct VariantStatus {
  std::size_t variant = 0;       ///< index in the variant list
  std::string name;              ///< spec name (after sweep expansion)
  std::string hash;              ///< config_hash of the variant
  enum class State {
    kDone,           ///< completed (this run, any attempt)
    kFailed,         ///< quarantined after 1 + retries attempts
    kSkippedResume,  ///< --resume found a durable done stash; not re-run
    kNotRun,         ///< never started, or abandoned on interrupt/shard
  };
  State state = State::kNotRun;
  std::size_t attempts = 0;  ///< run attempts this session (0 when skipped)
  std::string error;         ///< last error text for kFailed
};

/// Knobs of a farm run.
struct FarmOptions {
  /// Variants in flight at once (`--jobs`). 1 (the default) runs the batch
  /// serially on the calling thread — the reference schedule. N > 1 runs up
  /// to N variants concurrently, each with its own driver (so memory holds
  /// one dataset + model-replica set per in-flight variant). Clamped to the
  /// variant count and to the lane budget — every in-flight variant occupies
  /// at least one lane. Output files are byte-stable for every value.
  std::size_t jobs = 1;
  /// Total training lanes across all in-flight variants; 0 = hardware
  /// concurrency. With jobs > 1 each variant's pool is clamped to
  /// util::lane_budget_share(requested, jobs, lane_budget). Ignored for
  /// determinism sweeps, which must run the exact lane counts under test.
  std::size_t lane_budget = 0;
  /// Lane counts: empty = the spec's own `threads`; one entry = override;
  /// more than one = per-variant determinism sweep (run_thread_sweep).
  std::vector<std::size_t> threads;
  /// Extra attempts after a variant's first failure before it is
  /// quarantined as failed (0 = fail fast on first error).
  std::size_t retries = 0;
  /// Wall-clock seconds a single attempt may run before the watchdog
  /// cancels it (counts as a failed attempt). 0 = no timeout.
  double variant_timeout = 0.0;
  /// Exponential backoff between attempts: base * 2^(attempt-1), capped.
  double backoff_base = 0.1;
  double backoff_cap = 2.0;
  /// Skip variants whose manifest state is done *and* whose stash is
  /// intact; re-run everything else. false starts the farm fresh.
  bool resume = false;
  /// Shard i of N (1-based index, 0/0 = no sharding): this invocation only
  /// runs variants with index % shard_count == shard_index - 1. The
  /// resulting partial directories merge with merge_results.
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  /// Per-variant progress/ETA lines on stderr.
  bool progress = false;
  /// Invoked (serialized) after each variant settles — the CLI uses this
  /// for progress lines; tests use it to trigger interrupts mid-batch.
  std::function<void(const VariantStatus&)> on_status;
};

/// Outcome of run_farm.
struct FarmResult {
  std::vector<VariantStatus> statuses;  ///< one per variant, variant order
  /// Final (patched) results.jsonl records in variant order — what the
  /// assembled file contains, for the CLI summary table and tests.
  std::vector<Json> records;
  std::size_t completed = 0;      ///< done this session (excl. resume skips)
  std::size_t failed = 0;         ///< quarantined variants
  std::size_t resumed_skips = 0;  ///< variants satisfied by a prior session
  std::size_t retries = 0;        ///< extra attempts spent across variants
  bool all_identical = true;      ///< conjunction over determinism sweeps
  /// True when the farm stopped early (farm_request_stop, e.g. SIGINT):
  /// output files were NOT assembled; re-run with resume to finish.
  bool interrupted = false;
};

/// Runs `variants` as a crash-safe farm rooted at `out_dir` (see the block
/// comment above). Throws only on environmental errors (unwritable out_dir,
/// corrupt manifest interior); per-variant failures are quarantined into
/// FarmResult instead. The farm owns the whole directory.
FarmResult run_farm(const std::vector<ScenarioSpec>& variants, const std::string& out_dir,
                    const RunOverrides& ov = {}, const FarmOptions& opt = {},
                    const WriteOptions& wo = {});

/// Merges the farm stashes of `shard_dirs` (each a run_farm out_dir, e.g.
/// one per machine of a --shard=i/N sweep) into `out_dir`: stashes are
/// unioned by variant index (identical duplicates allowed; conflicting
/// hashes throw), a fresh manifest is journalled, and the output files are
/// assembled exactly as an unsharded run would have. Returns the union's
/// statuses/records; variants no shard completed stay kNotRun and make
/// the merge report them (`interrupted` stays false; check statuses).
FarmResult merge_results(const std::string& out_dir, const std::vector<std::string>& shard_dirs,
                         const WriteOptions& wo = {});

/// Async-signal-safe global stop flag for in-flight farms: request_stop
/// makes every running variant cancel (fl::RunCancelled) and the farm
/// return with `interrupted` set after journalling; safe to call from a
/// signal handler. clear resets it (tests / repeated CLI invocations).
void farm_request_stop() noexcept;
bool farm_stop_requested() noexcept;
void farm_clear_stop() noexcept;

}  // namespace airfedga::scenario
