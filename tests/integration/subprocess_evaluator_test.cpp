// The fully faithful section-2.2.4 loop: NSGA-II evaluations that launch the
// dp_train binary as a subprocess in UUID run directories, exchange
// hyperparameters via templated input.json files, and read fitness back from
// lcurve.out.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "md/simulation.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

#ifndef DPHO_DP_TRAIN_BIN
#define DPHO_DP_TRAIN_BIN "dp_train"
#endif

namespace dpho::core {
namespace {

/// A micro-scale input.json template: same placeholders as the paper's, with
/// laptop-sized fixed settings instead of Summit's.
const char* kMicroTemplate = R"({
  "model": {
    "descriptor": {"type": "se_e2_a", "rcut": ${rcut}, "rcut_smth": ${rcut_smth},
                   "neuron": [4, 6], "axis_neuron": 2, "sel": 24,
                   "activation_function": "${desc_activ_func}"},
    "fitting_net": {"neuron": [8], "activation_function": "${fitting_activ_func}"}
  },
  "learning_rate": {"start_lr": ${start_lr}, "stop_lr": ${stop_lr},
                    "scale_by_worker": "${scale_by_worker}"},
  "loss": {"start_pref_e": 0.02, "limit_pref_e": 1, "start_pref_f": 1000,
           "limit_pref_f": 1},
  "training": {"numb_steps": 5, "batch_size": 1, "disp_freq": 5, "seed": 1},
  "num_workers": 6
})";

class SubprocessSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new util::TempDir("subproc-eval");
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);
    sim.num_frames = 8;
    sim.equilibration_steps = 60;
    sim.seed = 83;
    const md::LabelledData data = md::generate_reference_data(sim, 0.25);
    data.train.save(dir_->path() / "train");
    data.validation.save(dir_->path() / "valid");
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static SubprocessEvalOptions options() {
    SubprocessEvalOptions opts;
    opts.dp_train_binary = DPHO_DP_TRAIN_BIN;
    opts.train_data_dir = dir_->path() / "train";
    opts.validation_data_dir = dir_->path() / "valid";
    opts.workspace_dir = dir_->path() / "runs";
    opts.input_template = kMicroTemplate;
    opts.wall_limit_seconds = 120.0;
    return opts;
  }

  static util::TempDir* dir_;
};

util::TempDir* SubprocessSuite::dir_ = nullptr;

TEST_F(SubprocessSuite, ValidGenomeTrainsViaSubprocess) {
  const SubprocessEvaluator evaluator(options());
  util::Rng rng(1);
  const ea::Individual individual = ea::Individual::create(
      {0.004, 0.001, 3.2, 2.0, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 0);
  ASSERT_FALSE(result.training_error);
  ASSERT_EQ(result.fitness.size(), 2u);
  EXPECT_GT(result.fitness[1], 0.0);
  // Full artifact trail in the UUID run directory.
  const auto run_dir = dir_->path() / "runs" / individual.uuid.str();
  EXPECT_TRUE(std::filesystem::exists(run_dir / "input.json"));
  EXPECT_TRUE(std::filesystem::exists(run_dir / "lcurve.out"));
  EXPECT_TRUE(std::filesystem::exists(run_dir / "model.json"));
  EXPECT_TRUE(std::filesystem::exists(run_dir / "stdout.log"));
}

TEST_F(SubprocessSuite, InvalidRcutFailsViaSubprocessExitCode) {
  const SubprocessEvaluator evaluator(options());
  util::Rng rng(2);
  const ea::Individual individual = ea::Individual::create(
      {0.004, 0.001, 11.0, 2.0, 2.3, 4.6, 4.2}, rng);  // rcut > box/2
  const EvalOutcome result = evaluator.evaluate(individual, 0);
  EXPECT_TRUE(result.training_error);
  EXPECT_TRUE(result.fitness.empty());
}

TEST_F(SubprocessSuite, DriverRunsOverSubprocessEvaluations) {
  const SubprocessEvaluator evaluator(options());
  EngineConfig config;
  config.population_size = 3;
  config.generations = 1;
  config.farm.real_threads = 1;  // serialize std::system calls
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(7);
  ASSERT_EQ(run.generations.size(), 2u);
  std::size_t evaluated = 0;
  for (const auto& gen : run.generations) evaluated += gen.evaluated.size();
  EXPECT_EQ(evaluated, 6u);
  // The workspace holds one UUID directory per evaluation.
  std::size_t run_dirs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_->path() / "runs")) {
    if (entry.is_directory()) ++run_dirs;
  }
  EXPECT_GE(run_dirs, 6u);
}

TEST_F(SubprocessSuite, MissingBinaryRejected) {
  SubprocessEvalOptions bad = options();
  bad.dp_train_binary.clear();
  EXPECT_THROW(SubprocessEvaluator{bad}, util::ValueError);
}

}  // namespace
}  // namespace dpho::core
