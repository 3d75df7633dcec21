// The paper's future work, implemented: joint neural-architecture +
// hyperparameter search (section 4: "model fidelity may also be further
// improved by incorporating neural architecture searching on the two DeePMD
// neural networks").
//
// The 7-gene Table-1 genome is extended with two categorical architecture
// genes (embedding-network and fitting-network shapes), decoded with the same
// floor-modulus scheme; the unchanged NSGA-II pipeline then optimizes
// architecture and training hyperparameters jointly against the *real*
// training stack at micro scale.
//
// Usage: ./examples/nas_extension
#include <cstdio>

#include "core/engine.hpp"
#include "core/nas.hpp"
#include "md/simulation.hpp"

int main() {
  using namespace dpho;

  std::printf("== generating reference data (100 atoms) ==\n");
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(10);  // L ~ 15.2 A
  sim.num_frames = 10;
  sim.equilibration_steps = 100;
  sim.sample_interval = 3;
  sim.seed = 23;
  const md::LabelledData data = md::generate_reference_data(sim, 0.25);

  // Laptop-sized architecture search space.
  core::NasSpace space;
  space.embedding_choices = {{4, 6}, {4, 8}, {6, 12}};
  space.fitting_choices = {{8}, {12, 12}, {16, 16}};

  core::RealEvalOptions options;
  options.base.descriptor.axis_neuron = 3;
  options.base.descriptor.sel = 64;
  options.base.training.numb_steps = 6;
  options.base.training.disp_freq = 6;
  options.wall_limit_seconds = 300.0;
  const core::NasRealEvaluator evaluator(data.train, data.validation, options, space);

  std::printf("== joint NAS + HPO over real trainings (6 x 2 waves,"
              " 9-gene genome) ==\n");
  core::EngineConfig config;
  config.population_size = 6;
  config.generations = 1;
  config.representation = evaluator.representation().representation();
  config.farm.real_threads = 2;
  const core::RunRecord run = core::EvolutionEngine(config, evaluator).run(5);

  for (const auto& generation : run.generations) {
    std::printf("\ngeneration %d:\n", generation.generation);
    for (const auto& record : generation.evaluated) {
      const core::NasParams params = evaluator.representation().decode(record.genome);
      if (record.status == ea::EvalStatus::kOk) {
        std::printf("  E=%.4f F=%.4f  %s\n", record.fitness[0], record.fitness[1],
                    params.describe().c_str());
      } else {
        std::printf("  FAILED (%s)  %s\n", to_string(record.status).c_str(),
                    params.describe().c_str());
      }
    }
  }
  std::printf("\nwith more steps/budget the search would trade network size"
              " against accuracy\nand runtime exactly like the seven original"
              " hyperparameters.\n");
  return 0;
}
