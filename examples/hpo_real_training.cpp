// The complete paper workflow with NO surrogate anywhere: every NSGA-II
// evaluation actually trains the DeepPot-SE stack on MD reference data, with
// the full artifact trail of section 2.2.4 -- a UUID-named run directory per
// individual, a substituted input.json, and fitness read back from
// lcurve.out.  Micro-scale so it finishes in about a minute.
//
// Usage: ./examples/hpo_real_training [workspace_dir]
#include <cstdio>

#include "core/analysis.hpp"
#include "core/engine.hpp"
#include "md/simulation.hpp"

int main(int argc, char** argv) {
  using namespace dpho;
  const std::filesystem::path workspace = argc > 1 ? argv[1] : "hpo_runs";

  std::printf("== generating reference data (100 atoms) ==\n");
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(10);  // 100 atoms, L ~ 15.2 A
  sim.num_frames = 10;
  sim.equilibration_steps = 100;
  sim.sample_interval = 3;
  sim.seed = 11;
  const md::LabelledData data = md::generate_reference_data(sim, 0.25);

  core::RealEvalOptions options;
  options.base.descriptor.neuron = {4, 8};
  options.base.descriptor.axis_neuron = 3;
  options.base.descriptor.sel = 64;
  options.base.fitting.neuron = {12};
  options.base.training.numb_steps = 6;  // micro budget per individual
  options.base.training.disp_freq = 6;
  options.wall_limit_seconds = 300.0;
  options.workspace_dir = workspace;
  core::EvalBackendConfig backend;
  backend.backend = core::EvalBackend::kRealTraining;
  backend.train_data = &data.train;
  backend.validation_data = &data.validation;
  backend.real = options;
  const std::unique_ptr<core::Evaluator> evaluator = core::make_evaluator(backend);

  std::printf("== NSGA-II over real trainings (6 individuals x 2 waves) ==\n");
  core::EngineConfig config;
  config.population_size = 6;
  config.generations = 1;
  config.farm.real_threads = 2;
  const core::RunRecord run = core::EvolutionEngine(config, *evaluator).run(3);

  const core::DeepMDRepresentation repr;
  for (const auto& generation : run.generations) {
    std::printf("\ngeneration %d:\n", generation.generation);
    for (const auto& record : generation.evaluated) {
      if (record.status == ea::EvalStatus::kOk) {
        std::printf("  %s  E=%.4f F=%.4f  (%s)\n", record.uuid.c_str(),
                    record.fitness[0], record.fitness[1],
                    repr.decode(record.genome).describe().c_str());
      } else {
        std::printf("  %s  FAILED (%s) -> fitness MAXINT  (%s)\n",
                    record.uuid.c_str(), to_string(record.status).c_str(),
                    repr.decode(record.genome).describe().c_str());
      }
    }
  }
  std::printf("\nartifacts (input.json, lcurve.out per individual) under %s/\n",
              workspace.string().c_str());
  std::printf("note: genomes with rcut > L/2 = %.2f A fail, exactly like invalid\n"
              "hyperparameter combinations failed on Summit (section 2.2.4).\n",
              0.5 * sim.spec.box_length());
  return 0;
}
