// NSGA-II over the *real* training stack at micro scale: the complete paper
// workflow with no surrogate anywhere -- MD reference data, DeepPot-SE
// training per individual, lcurve-based fitness, MAXINT failures.
#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/engine.hpp"
#include "md/simulation.hpp"

namespace dpho::core {
namespace {

TEST(RealTrainingIntegration, MicroScaleEndToEnd) {
  // Paper-composition melt.  Table-1 rcut genes span (6, 12), and the
  // neighbor search requires rcut < L/2, so a 100-atom box (L ~ 15.2 A,
  // limit ~7.6 A) lets low-rcut genomes train for real while high-rcut
  // genomes genuinely fail -- exercising both paths of the workflow.
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(10);  // 100 atoms, L ~ 15.2 A
  sim.num_frames = 8;
  sim.equilibration_steps = 40;
  sim.sample_interval = 2;
  sim.seed = 5;
  const md::LabelledData data = md::generate_reference_data(sim, 0.25);

  RealEvalOptions options;
  options.base.descriptor.neuron = {4, 6};
  options.base.descriptor.axis_neuron = 2;
  options.base.descriptor.sel = 48;
  options.base.fitting.neuron = {8};
  options.base.training.numb_steps = 4;
  options.base.training.disp_freq = 4;
  options.wall_limit_seconds = 120.0;
  options.trainer_num_threads = 2;  // data-parallel gradients inside trainings
  EvalBackendConfig backend;
  backend.backend = EvalBackend::kRealTraining;
  backend.train_data = &data.train;
  backend.validation_data = &data.validation;
  backend.real = options;
  const std::unique_ptr<Evaluator> evaluator = make_evaluator(backend);

  EngineConfig config;
  config.population_size = 6;
  config.generations = 1;
  config.farm.real_threads = 2;
  EvolutionEngine engine(config, *evaluator);
  const RunRecord run = engine.run(3);

  ASSERT_EQ(run.generations.size(), 2u);
  std::size_t ok = 0, failed = 0;
  for (const GenerationRecord& gen : run.generations) {
    for (const EvalRecord& record : gen.evaluated) {
      if (record.status == ea::EvalStatus::kOk) {
        ++ok;
        ASSERT_EQ(record.fitness.size(), 2u);
        EXPECT_GT(record.fitness[1], 0.0);
        EXPECT_LT(record.fitness[1], 100.0);
      } else {
        ++failed;
        EXPECT_DOUBLE_EQ(record.fitness[0], ea::kFailureFitness);
      }
    }
  }
  EXPECT_EQ(ok + failed, 12u);
  // Table-1 rcut range is (6, 12) and the box admits < ~7.6, so both
  // outcomes occur with overwhelming probability at this seed.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace dpho::core
