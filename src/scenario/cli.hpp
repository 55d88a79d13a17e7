#pragma once

#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace airfedga::scenario::cli {

/// Argument parsing and study loading for the airfedga_cli tool, kept in
/// the library so every piece is unit-testable (tools/airfedga_cli.cpp
/// stays a thin command dispatcher). All parsers throw
/// std::invalid_argument with the offending flag and token in the message.

/// Splits "a,b,c" into tokens (empty tokens are an error).
std::vector<std::string> split_list(const std::string& list, const std::string& what);

/// Parses a non-negative integer of at most 18 digits (covers every seed
/// the JSON schema itself can carry — numbers are doubles, exact to 2^53 —
/// without overflowing), rejecting signs, spaces, and trailing garbage.
std::size_t parse_count(const std::string& tok, const std::string& what);

/// Parses a strictly positive finite double with std::from_chars, which is
/// locale-independent — std::strtod honors LC_NUMERIC, so under e.g. a
/// de_DE locale it would reject "1.5" or silently truncate at the '.'.
/// Rejects empty tokens, trailing garbage ("1.5x"), hex ("0x10"),
/// inf/nan, and values <= 0.
double parse_positive_double(const std::string& tok, const std::string& what);

/// A sweep value is a JSON scalar: number/bool/null if it parses as one, a
/// string otherwise (so --sweep partition.kind=iid,dirichlet works).
Json parse_sweep_value(const std::string& tok);

/// Parses one "path=v1,v2,..." sweep assignment into an axis.
SweepAxis parse_sweep_axis(const std::string& assign, const std::string& what);

/// Everything the `run` and `run-dir` commands accept.
struct RunArgs {
  std::vector<std::string> sources;      ///< positional args (scenario / directory)
  RunOverrides overrides;                ///< --seed / --time-budget
  std::vector<std::size_t> threads;      ///< --threads (2+ entries = determinism sweep)
  std::vector<SweepAxis> sweeps;         ///< --sweep axes, in flag order
  std::size_t jobs = 1;                  ///< --jobs=N concurrent variants
  bool timing = true;                    ///< cleared by --no-timing (byte-stable output)
  std::string out_dir = "scenario_results";  ///< --out=DIR
  /// --trace[=PATH]: collect obs spans/metrics and write a Chrome trace
  /// JSON after the runs. Execution-only — the spec is not modified, so a
  /// traced run keeps the untraced run's config_hash and digests.
  bool trace = false;
  std::string trace_path;  ///< empty = <out_dir>/trace.json

  // Crash-safe farm flags (docs/SCENARIOS.md "Crash-safe farm").
  bool resume = false;            ///< --resume: skip durably-done variants
  std::size_t retries = 0;        ///< --retries=K extra attempts per variant
  double variant_timeout = 0.0;   ///< --variant-timeout=S wall seconds (0 = none)
  std::size_t shard_index = 0;    ///< --shard=i/N (1-based; 0/0 = unsharded)
  std::size_t shard_count = 0;
  bool progress = true;           ///< cleared by --no-progress
  std::vector<std::string> faults;  ///< --fault=SPEC (repeatable; armed by main)
};

/// Parses run/run-dir flags: --seed, --threads, --time-budget, --jobs,
/// --no-timing, --out, --trace[=PATH], --sweep in both its one-token
/// (--sweep=path=v1,v2) and two-token (--sweep path=v1,v2) forms, and the
/// farm flags --resume, --retries=K, --variant-timeout=S, --shard=i/N,
/// --no-progress, --fault=SPEC. Positional arguments land in `sources`
/// (count is validated by the command, not here). Unknown --flags are an
/// error.
RunArgs parse_run_args(const std::vector<std::string>& args);

/// A study: one scenario spec plus the sweep axes checked in next to it.
/// Expanding the sweeps over the spec yields the study's variant grid.
struct Study {
  ScenarioSpec spec;
  std::vector<SweepAxis> sweeps;
};

/// Parses study JSON: a scenario spec document that may additionally carry
/// a top-level "sweeps" object mapping dotted spec paths to value arrays,
///   "sweeps": { "mechanisms.0.xi": [0.1, 0.3], "run.seed": [1, 2] }
/// Axis order is the key order in the file (object order is preserved).
/// The "sweeps" key is stripped before spec parsing, so plain spec
/// documents remain valid studies with no axes.
Study parse_study(const Json& j);

/// Loads a study from a preset name, a .json file path, or "-" (stdin).
Study load_study(const std::string& source);

/// The *.json files directly inside `dir`, sorted by filename so a
/// directory of studies always runs (and exports) in the same order.
/// Throws when `dir` is not a directory or contains no .json files.
std::vector<std::string> list_scenario_files(const std::string& dir);

}  // namespace airfedga::scenario::cli
