// The end-to-end benchmark program.  One run executes one workload at a fixed
// amount of work, checks its outputs, and prints one JSON result line last:
//
//   perfbench --workload hpo_process|md_nnp|md_ref|serve_pareto --seed N
//             --seconds S --trace 0|1 --work-dir DIR --fixture-dir DIR
//             --bin-dir DIR [--git-sha SHA]
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of the same workload (its end-to-end values go to the `# meta` line so the
// tracing overhead can be read off).  The exit code is nonzero when an
// output check fails.
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;
using dpho::util::Json;

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  return 2;
}

Json metrics_json(const std::map<std::string, Metric>& metrics) {
  Json out = Json(dpho::util::JsonObject{});
  for (const auto& [name, metric] : metrics) {
    Json entry = Json(dpho::util::JsonObject{});
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    out[name] = entry;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stoi(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--work-dir") options.work_dir = value;
      else if (flag == "--fixture-dir") options.fixture_dir = value;
      else if (flag == "--bin-dir") options.bin_dir = value;
      else if (flag == "--git-sha") git_sha = value;
      else return usage("unknown flag " + flag);
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (self_test) return perfbench::run_self_tests();
  if (options.seconds < 1) return usage("--seconds must be at least 1");
  if (options.work_dir.empty() || options.fixture_dir.empty() || options.bin_dir.empty()) {
    return usage("--work-dir, --fixture-dir and --bin-dir are required");
  }
  dpho::util::set_log_level(dpho::util::LogLevel::kWarn);

  Result result;
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.fixture_dir);
  try {
    if (options.workload == "hpo_process") {
      result = perfbench::run_hpo_process(options);
    } else if (options.workload == "md_nnp") {
      result = perfbench::run_md(options, true);
    } else if (options.workload == "md_ref") {
      result = perfbench::run_md(options, false);
    } else if (options.workload == "serve_pareto") {
      result = perfbench::run_serve_pareto(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::filesystem::remove_all(options.work_dir);
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  // Each accepted hpo evaluation leaves ~18 MB of model.json behind.
  std::filesystem::remove_all(options.work_dir);

  result.meta["workload"] = options.workload;
  result.meta["seed"] = static_cast<std::int64_t>(options.seed);
  result.meta["seconds"] = options.seconds;
  result.meta["trace"] = options.trace;
  Json host = perfbench::host_metadata();
  host["git_sha"] = git_sha;
  result.meta["host"] = host;
  Json violations = Json(dpho::util::JsonArray{});
  for (const std::string& violation : result.violations) {
    std::cerr << "perfbench: check failed: " << violation << "\n";
    violations.as_array().emplace_back(violation);
  }
  result.meta["violations"] = violations;
  if (options.trace) result.meta["traced_end_to_end"] = metrics_json(result.end_to_end);

  const bool correct = result.violations.empty();
  Json line = Json(dpho::util::JsonObject{});
  line["correct"] = correct;
  line["attempted"] = result.attempted;
  line["failed"] = result.failed;
  line["metrics"] = metrics_json(options.trace ? result.per_layer : result.end_to_end);
  std::cout << "# meta " << result.meta.dump() << "\n" << line.dump() << std::endl;
  return correct ? 0 : 1;
}
