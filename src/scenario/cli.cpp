#include "scenario/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "scenario/presets.hpp"

namespace airfedga::scenario::cli {

std::vector<std::string> split_list(const std::string& list, const std::string& what) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string tok = list.substr(pos, comma - pos);
    if (tok.empty())
      throw std::invalid_argument(what + ": empty element in list \"" + list + "\"");
    out.push_back(tok);
    pos = comma + 1;
  }
  return out;
}

std::size_t parse_count(const std::string& tok, const std::string& what) {
  if (tok.empty() || tok.size() > 18 ||
      tok.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument(what + ": \"" + tok + "\" is not a non-negative integer");
  std::size_t value = 0;
  std::from_chars(tok.data(), tok.data() + tok.size(), value);  // cannot fail after the check
  return value;
}

double parse_positive_double(const std::string& tok, const std::string& what) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (tok.empty() || ec != std::errc() || ptr != tok.data() + tok.size() ||
      !std::isfinite(value) || value <= 0.0)
    throw std::invalid_argument(what + ": \"" + tok + "\" is not a positive number");
  return value;
}

Json parse_sweep_value(const std::string& tok) {
  try {
    return Json::parse(tok);
  } catch (const JsonError&) {
    return Json(tok);
  }
}

SweepAxis parse_sweep_axis(const std::string& assign, const std::string& what) {
  const std::size_t eq = assign.find('=');
  if (eq == std::string::npos || eq == 0)
    throw std::invalid_argument(what + ": expected path=v1,v2,..., got \"" + assign + "\"");
  SweepAxis axis;
  axis.path = assign.substr(0, eq);
  for (const auto& tok : split_list(assign.substr(eq + 1), what + " " + axis.path))
    axis.values.push_back(parse_sweep_value(tok));
  return axis;
}

RunArgs parse_run_args(const std::vector<std::string>& args) {
  RunArgs out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--seed=", 0) == 0) {
      out.overrides.seed = parse_count(arg.substr(7), "--seed");
    } else if (arg.rfind("--threads=", 0) == 0) {
      for (const auto& tok : split_list(arg.substr(10), "--threads")) {
        const std::size_t v = parse_count(tok, "--threads");
        if (v == 0) throw std::invalid_argument("--threads: lane counts must be >= 1");
        if (std::find(out.threads.begin(), out.threads.end(), v) == out.threads.end())
          out.threads.push_back(v);
      }
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      out.overrides.time_budget = parse_positive_double(arg.substr(14), "--time-budget");
    } else if (arg.rfind("--jobs=", 0) == 0) {
      out.jobs = parse_count(arg.substr(7), "--jobs");
      if (out.jobs == 0) throw std::invalid_argument("--jobs: must be >= 1");
    } else if (arg == "--no-timing") {
      out.timing = false;
    } else if (arg == "--resume") {
      out.resume = true;
    } else if (arg.rfind("--retries=", 0) == 0) {
      out.retries = parse_count(arg.substr(10), "--retries");
    } else if (arg.rfind("--variant-timeout=", 0) == 0) {
      out.variant_timeout = parse_positive_double(arg.substr(18), "--variant-timeout");
    } else if (arg.rfind("--shard=", 0) == 0) {
      const std::string spec = arg.substr(8);
      const std::size_t slash = spec.find('/');
      if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size())
        throw std::invalid_argument("--shard: expected i/N (e.g. --shard=2/4), got \"" + spec +
                                    "\"");
      out.shard_index = parse_count(spec.substr(0, slash), "--shard index");
      out.shard_count = parse_count(spec.substr(slash + 1), "--shard count");
      if (out.shard_count == 0 || out.shard_index == 0 || out.shard_index > out.shard_count)
        throw std::invalid_argument("--shard: index must be in [1, N] with N >= 1, got \"" +
                                    spec + "\"");
    } else if (arg == "--no-progress") {
      out.progress = false;
    } else if (arg.rfind("--fault=", 0) == 0) {
      if (arg.size() == 8) throw std::invalid_argument("--fault: spec must not be empty");
      out.faults.push_back(arg.substr(8));
    } else if (arg.rfind("--out=", 0) == 0) {
      out.out_dir = arg.substr(6);
      if (out.out_dir.empty()) throw std::invalid_argument("--out: directory must not be empty");
    } else if (arg == "--trace") {
      out.trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      out.trace = true;
      out.trace_path = arg.substr(8);
      if (out.trace_path.empty()) throw std::invalid_argument("--trace: path must not be empty");
    } else if (arg == "--sweep" || arg.rfind("--sweep=", 0) == 0) {
      std::string assign;
      if (arg == "--sweep") {
        if (i + 1 >= args.size())
          throw std::invalid_argument("--sweep: expected path=v1,v2,... after it");
        assign = args[++i];
      } else {
        assign = arg.substr(8);
      }
      out.sweeps.push_back(parse_sweep_axis(assign, "--sweep"));
    } else if (arg.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown option \"" + arg + "\" (see airfedga_cli --help)");
    } else {
      out.sources.push_back(arg);
    }
  }
  return out;
}

Study parse_study(const Json& j) {
  Study study;
  const Json* sweeps = j.find("sweeps");
  if (sweeps == nullptr) {
    study.spec = ScenarioSpec::from_json(j);
    return study;
  }
  if (!sweeps->is_object())
    throw std::invalid_argument("study: \"sweeps\" must be an object of path -> value array");
  for (const auto& [path, values] : sweeps->as_object()) {
    if (!values.is_array() || values.as_array().empty())
      throw std::invalid_argument("study: sweeps[\"" + path +
                                  "\"] must be a non-empty array of values");
    SweepAxis axis;
    axis.path = path;
    axis.values = values.as_array();
    study.sweeps.push_back(std::move(axis));
  }
  // The spec parser rejects unknown keys, so strip "sweeps" before handing
  // the document over (order of the remaining keys is preserved).
  Json spec_json = Json::object();
  for (const auto& [key, value] : j.as_object())
    if (key != "sweeps") spec_json.set(key, value);
  study.spec = ScenarioSpec::from_json(spec_json);
  return study;
}

namespace {
std::string read_stream(std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}
}  // namespace

Study load_study(const std::string& source) {
  if (source == "-") {
    const std::string text = read_stream(std::cin);
    if (text.empty()) throw std::invalid_argument("stdin: no scenario JSON on standard input");
    return parse_study(Json::parse(text));
  }
  if (has_preset(source)) return Study{preset(source), {}};
  std::error_code ec;
  if (std::filesystem::is_directory(source, ec))
    throw std::invalid_argument("\"" + source +
                                "\" is a directory — use `airfedga_cli run-dir " + source + "`");
  std::ifstream f(source);
  if (!f) {
    if (source.find('.') == std::string::npos)  // looks like a preset name, not a path
      throw std::invalid_argument("no such preset or file \"" + source +
                                  "\"; `airfedga_cli list` shows the presets");
    throw std::invalid_argument("cannot open scenario file \"" + source + "\"");
  }
  return parse_study(Json::parse(read_stream(f)));
}

std::vector<std::string> list_scenario_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    throw std::invalid_argument("run-dir: \"" + dir + "\" is not a directory");
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path().string());
  }
  if (files.empty())
    throw std::invalid_argument("run-dir: no .json scenario files in \"" + dir + "\"");
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace airfedga::scenario::cli
