// Shared setup for the table/figure reproduction benches: the paper-scale
// experiment (five NSGA-II deployments, 100 individuals x 7 waves each,
// surrogate-backed evaluations on the simulated 100-node Summit allocation).
#pragma once

#include <cstdio>
#include <memory>
#include <vector>

#include "core/analysis.hpp"
#include "core/experiment.hpp"

namespace dpho::bench {

inline core::ExperimentConfig paper_experiment_config() {
  core::ExperimentConfig config;
  config.engine.population_size = 100;  // one Summit node per individual
  config.engine.generations = 6;        // waves 0..6 -> 3500 trainings total
  config.engine.farm.node_failure_probability = 0.0005;
  config.engine.farm.real_threads = 2;
  config.seeds = {1, 2, 3, 4, 5};  // the five independent runs
  return config;
}

inline std::vector<core::RunRecord> run_paper_experiment() {
  static const std::vector<core::RunRecord> kRuns = [] {
    const std::unique_ptr<core::Evaluator> evaluator =
        core::make_evaluator(core::EvalBackendConfig{});
    core::ExperimentRunner runner(paper_experiment_config(), *evaluator);
    return runner.run_all();
  }();
  return kRuns;
}

inline void print_header(const char* id, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s -- %s\n", id, description);
  std::printf("================================================================\n");
}

}  // namespace dpho::bench
