// The paper's experiment, runnable on a laptop: multiobjective NSGA-II
// hyperparameter optimization of DeePMD training for the molten-salt
// potential, minimizing [energy RMSE, force RMSE] simultaneously.
//
// Evaluations use the calibrated training surrogate on a simulated Summit
// allocation (see DESIGN.md for the substitution rationale); the EA
// machinery -- seven-gene representation, floor-mod decoding, annealed
// Gaussian mutation, rank sorting + crowding truncation, MAXINT failure
// fitnesses -- is the paper's, at full fidelity.
//
// Usage: ./examples/hpo_molten_salt [population] [generations] [runs] [out_dir]
#include <cstdio>
#include <cstdlib>

#include "core/analysis.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace dpho;
  core::ExperimentConfig config;
  config.engine.population_size =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 40;
  config.engine.generations = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 6;
  const std::size_t runs = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2;
  config.seeds.clear();
  for (std::size_t s = 1; s <= runs; ++s) config.seeds.push_back(s);
  config.engine.farm.node_failure_probability = 0.0005;
  config.engine.farm.real_threads = 2;

  std::printf("NSGA-II hyperparameter optimization: %zu individuals x %zu"
              " generations x %zu runs\n",
              config.engine.population_size, config.engine.generations + 1, runs);

  const std::unique_ptr<core::Evaluator> evaluator =
      core::make_evaluator(core::EvalBackendConfig{});
  core::ExperimentRunner runner(config, *evaluator);
  const auto results = runner.run_all();

  for (const auto& run : results) {
    std::printf("run seed %llu: %zu generations, job wall clock %.0f min"
                " (12 h limit)\n",
                static_cast<unsigned long long>(run.seed), run.generations.size(),
                run.job_minutes);
  }

  // Pareto frontier of the aggregated final populations.
  const auto last = core::last_generation_solutions(results);
  const auto front = core::pareto_front(last);
  const core::DeepMDRepresentation repr;
  std::printf("\nPareto frontier (%zu points):\n", front.size());
  std::printf("  force eV/A | energy eV/atom | hyperparameters\n");
  for (std::size_t i : front) {
    std::printf("  %10.4f | %14.4f | %s\n", last[i].fitness[1], last[i].fitness[0],
                repr.decode(last[i].genome).describe().c_str());
  }

  // Chemically accurate picks (section 3.2 criteria).
  const core::Table3Selection picks = core::select_table3(last);
  std::printf("\nchemically accurate picks (E < 0.004 eV/atom, F < 0.04 eV/A):\n");
  const auto show = [&](const char* label, const auto& record) {
    if (record) {
      std::printf("  %-15s %s  [rt %.1f min]\n", label,
                  repr.decode(record->genome).describe().c_str(),
                  record->runtime_minutes);
    }
  };
  show("lowest force:", picks.lowest_force);
  show("lowest energy:", picks.lowest_energy);
  show("lowest runtime:", picks.lowest_runtime);

  if (argc > 4) {
    core::export_results(results, argv[4]);
    std::printf("\nper-evaluation records exported to %s\n", argv[4]);
  }
  return 0;
}
