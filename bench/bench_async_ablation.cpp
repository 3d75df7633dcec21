// Deployment ablation on the unified EvolutionEngine: the paper's
// generational NSGA-II (barrier per generation, makespan = max-of-wave) vs
// the asynchronous steady-state schedule, under a scripted straggler
// workload -- every k-th training runs 4x slow.  Same evaluator, same node
// count, same evaluation budget; only the SchedulePolicy differs.
//
// Emits BENCH_engine.json:
//   {"bench": "engine_ablation", "smoke": B, "population": N, "budget": E,
//    "straggler_every": K, "straggler_factor": F, "mean_speedup": S,
//    "results": [{"mode": M, "seed": s, "makespan_minutes": X,
//                 "node_idle_fraction": Y, "evaluations": E}, ...],
//    "metrics": {"schema": "dpho.metrics.v1", ...}}
//
// The `metrics` block is the process-wide obs registry (the same
// dpho.metrics.v1 document `--metrics-out` runs write), so bench artifacts
// and run summaries share one schema: the engine.* and farm.* counters
// accumulated across every ablation run land here exactly as they do in
// metrics_summary.json.
//
// Usage: bench_async_ablation [--smoke] [--out FILE]
//   --smoke  reduced scale (CI-friendly); also self-validates the JSON
//            schema after writing and exits nonzero on any violation.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "hpc/taskfarm.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace {

using namespace dpho;

struct AblationPoint {
  std::string mode;
  std::uint64_t seed = 0;
  double makespan_minutes = 0.0;
  double node_idle_fraction = 0.0;
  std::size_t evaluations = 0;
};

/// Stragglers for the generational schedule: each generation is one farm
/// batch, task ids restart at 0 every wave.
hpc::FaultPlan generational_stragglers(std::size_t population,
                                       std::size_t generations, std::size_t every,
                                       double factor) {
  hpc::FaultPlan plan;
  for (std::size_t gen = 0; gen <= generations; ++gen) {
    for (std::size_t task = 0; task < population; ++task) {
      if ((gen * population + task) % every == 0) {
        hpc::FaultEvent event;
        event.kind = hpc::FaultKind::kStraggler;
        event.batch = gen;
        event.task = task;
        event.factor = factor;
        plan.events.push_back(event);
      }
    }
  }
  return plan;
}

/// The same workload for the steady-state schedule: the whole stream is one
/// farm batch and task ids are birth ids, so slow every k-th birth.
hpc::FaultPlan steady_state_stragglers(std::size_t budget, std::size_t every,
                                       double factor) {
  hpc::FaultPlan plan;
  for (std::size_t birth = 0; birth < budget; birth += every) {
    hpc::FaultEvent event;
    event.kind = hpc::FaultKind::kStraggler;
    event.batch = 0;
    event.task = birth;
    event.factor = factor;
    plan.events.push_back(event);
  }
  return plan;
}

/// The smoke run re-reads the artifact and checks the schema the docs and CI
/// depend on; a bench that silently writes garbage is worse than none.
bool validate_schema(const std::filesystem::path& path) {
  const util::Json doc = util::Json::parse(util::read_file(path));
  if (!doc.is_object()) return false;
  for (const char* key : {"bench", "smoke", "population", "budget",
                          "straggler_every", "straggler_factor", "mean_speedup",
                          "results", "metrics"}) {
    if (!doc.contains(key)) {
      std::fprintf(stderr, "BENCH_engine.json: missing key %s\n", key);
      return false;
    }
  }
  if (!doc.at("results").is_array() || doc.at("results").as_array().empty()) {
    return false;
  }
  for (const util::Json& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) return false;
    for (const char* key : {"mode", "seed", "makespan_minutes",
                            "node_idle_fraction", "evaluations"}) {
      if (!entry.contains(key)) {
        std::fprintf(stderr, "BENCH_engine.json: result missing key %s\n", key);
        return false;
      }
    }
  }
  if (!obs::is_metrics_document(doc.at("metrics"))) {
    std::fprintf(stderr, "BENCH_engine.json: metrics block is not a valid"
                         " dpho.metrics.v1 document\n");
    return false;
  }
  // The instrumented engine must have counted every evaluation the results
  // rows report.
  double reported = 0.0;
  for (const util::Json& entry : doc.at("results").as_array()) {
    reported += entry.number_or("evaluations", 0.0);
  }
  const util::Json& counters = doc.at("metrics").at("deterministic").at("counters");
  if (counters.number_or("engine.evaluations_total", 0.0) != reported) {
    std::fprintf(stderr, "BENCH_engine.json: metrics block disagrees with"
                         " results on evaluation count\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::filesystem::path out = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  const std::size_t population = smoke ? 10 : 100;
  const std::size_t generations = smoke ? 2 : 6;
  const std::size_t budget = (generations + 1) * population;
  const std::size_t straggler_every = 9;
  const double straggler_factor = 4.0;
  const std::uint64_t num_seeds = smoke ? 2 : 5;

  const auto evaluator_ptr = core::make_evaluator(core::EvalBackendConfig{});
  const core::Evaluator& evaluator = *evaluator_ptr;

  std::printf("engine ablation: %zu nodes, %zu evaluations, every %zuth"
              " training a %.0fx straggler\n",
              population, budget, straggler_every, straggler_factor);
  std::printf("seed | generational: minutes idle%% | async: minutes idle%%"
              " | speedup\n");
  std::printf("-----+-----------------------------+---------------------"
              "--+--------\n");

  // Fresh process-wide registry: the embedded metrics block must describe
  // exactly the ablation runs below.
  obs::metrics().reset();

  std::vector<AblationPoint> points;
  double total_speedup = 0.0;
  for (std::uint64_t seed = 1; seed <= num_seeds; ++seed) {
    core::EngineConfig sync_config;
    sync_config.population_size = population;
    sync_config.generations = generations;
    sync_config.farm.real_threads = 2;
    sync_config.farm.faults =
        generational_stragglers(population, generations, straggler_every,
                                straggler_factor);
    const core::RunRecord sync_run =
        core::EvolutionEngine(sync_config, evaluator).run(seed);

    core::EngineConfig async_config;
    async_config.mode = core::ScheduleMode::kSteadyState;
    async_config.population_size = population;
    async_config.total_evaluations = budget;
    async_config.farm.real_threads = 2;
    async_config.farm.faults =
        steady_state_stragglers(budget, straggler_every, straggler_factor);
    const core::RunRecord async_run =
        core::EvolutionEngine(async_config, evaluator).run(seed);

    AblationPoint sync_point{"generational", seed, sync_run.job_minutes,
                             1.0 - sync_run.busy_fraction,
                             sync_run.total_evaluations()};
    AblationPoint async_point{"async", seed, async_run.job_minutes,
                              1.0 - async_run.busy_fraction,
                              async_run.total_evaluations()};
    const double speedup = sync_run.job_minutes / async_run.job_minutes;
    total_speedup += speedup;
    std::printf("%4llu | %14.0f %9.1f%% | %12.0f %7.1f%% | %6.2fx\n",
                static_cast<unsigned long long>(seed),
                sync_point.makespan_minutes, 100.0 * sync_point.node_idle_fraction,
                async_point.makespan_minutes,
                100.0 * async_point.node_idle_fraction, speedup);
    points.push_back(sync_point);
    points.push_back(async_point);
  }
  const double mean_speedup = total_speedup / static_cast<double>(num_seeds);
  std::printf("\nmean wall-clock speedup at equal budget: %.2fx\n", mean_speedup);
  std::printf("(the generational barrier waits for every straggler;\n"
              " steady-state refills each node the moment it goes idle)\n");

  util::JsonObject doc;
  doc["bench"] = "engine_ablation";
  doc["smoke"] = smoke;
  doc["population"] = population;
  doc["budget"] = budget;
  doc["straggler_every"] = straggler_every;
  doc["straggler_factor"] = straggler_factor;
  doc["mean_speedup"] = mean_speedup;
  util::JsonArray results;
  for (const AblationPoint& point : points) {
    util::JsonObject entry;
    entry["mode"] = point.mode;
    entry["seed"] = point.seed;
    entry["makespan_minutes"] = point.makespan_minutes;
    entry["node_idle_fraction"] = point.node_idle_fraction;
    entry["evaluations"] = point.evaluations;
    results.push_back(util::Json(std::move(entry)));
  }
  doc["results"] = util::Json(std::move(results));
  doc["metrics"] = obs::metrics().to_json();
  util::write_file(out, util::Json(std::move(doc)).dump(2) + "\n");
  std::printf("wrote %s\n", out.string().c_str());

  if (smoke && !validate_schema(out)) return 1;
  return 0;
}
