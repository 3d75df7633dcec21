#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include "codec_fuzz.hpp"
#include "core/eval_config_io.hpp"
#include "dp/lcurve.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace dpho::core {
namespace {

ea::Individual individual_for(const std::vector<double>& genome, util::Rng& rng) {
  return ea::Individual::create(genome, rng);
}

TEST(SurrogateEvaluator, GoodGenomeYieldsTwoObjectives) {
  const SurrogateEvaluator evaluator;
  util::Rng rng(1);
  // Table 3 solution 1 encoded as genes.
  const ea::Individual individual =
      individual_for({0.0047, 0.0001, 11.32, 2.42, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 7);
  EXPECT_FALSE(result.training_error);
  ASSERT_EQ(result.fitness.size(), 2u);
  EXPECT_GT(result.fitness[0], 0.0);  // rmse_e
  EXPECT_GT(result.fitness[1], 0.0);  // rmse_f
  EXPECT_GT(result.runtime_minutes, 10.0);
  EXPECT_LT(result.runtime_minutes, 120.0);
}

TEST(SurrogateEvaluator, FitnessOrderIsEnergyThenForce) {
  const SurrogateEvaluator evaluator;
  util::Rng rng(2);
  const ea::Individual individual =
      individual_for({0.0047, 0.0001, 11.32, 2.42, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 7);
  // Energy error (eV/atom) is far smaller than force error (eV/A) for any
  // trained model in this landscape.
  EXPECT_LT(result.fitness[0], result.fitness[1]);
}

TEST(SurrogateEvaluator, InvalidConfigReportsTrainingError) {
  const SurrogateEvaluator evaluator;
  util::Rng rng(3);
  // rcut 6.0 with rcut_smth 6.0: invalid ordering.
  const ea::Individual individual =
      individual_for({0.004, 0.0001, 6.0, 6.0, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 7);
  EXPECT_TRUE(result.training_error);
  EXPECT_TRUE(result.fitness.empty());
}

TEST(SurrogateEvaluator, DeterministicForSeed) {
  const SurrogateEvaluator evaluator;
  util::Rng rng(4);
  const ea::Individual individual =
      individual_for({0.0047, 0.0001, 11.32, 2.42, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome a = evaluator.evaluate(individual, 99);
  const EvalOutcome b = evaluator.evaluate(individual, 99);
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_DOUBLE_EQ(a.runtime_minutes, b.runtime_minutes);
}

TEST(EvalConfigIo, UnsignedFieldsRejectNegativeHugeAndFractionalValues) {
  // The eval config a worker receives in its init frame: each count goes
  // through Json::as_uint, so -1, 1e30 and 2.5 are errors, not casts.
  test_support::fuzz_integer_fields(
      eval_backend_config_to_json(EvalBackendConfig{}),
      {{"surrogate", "num_workers"}}, eval_backend_config_from_json);
  EvalBackendConfig subprocess;
  subprocess.backend = EvalBackend::kSubprocess;
  test_support::fuzz_integer_fields(
      eval_backend_config_to_json(subprocess),
      {{"subprocess", "trainer_threads"}, {"subprocess", "max_attempts"}},
      eval_backend_config_from_json);
}

class RealEvaluatorSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);
    sim.num_frames = 12;
    sim.equilibration_steps = 150;
    sim.seed = 31;
    data_ = new md::LabelledData(md::generate_reference_data(sim, 0.25));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static RealEvalOptions tiny_options() {
    RealEvalOptions options;
    options.base.descriptor.neuron = {4, 6};
    options.base.descriptor.axis_neuron = 2;
    options.base.descriptor.sel = 24;
    options.base.fitting.neuron = {8};
    options.base.training.numb_steps = 15;
    options.base.training.disp_freq = 5;
    options.wall_limit_seconds = 120.0;
    return options;
  }

  // rcut must fit the small box: genes pick rcut ~ 3.2 via... the Table-1
  // range starts at 6.0, so we decode a genome and then the evaluator's base
  // config cannot shrink it.  Instead we test with a genome whose rcut gene
  // is at the low edge and a box that accommodates it.
  static md::LabelledData* data_;
};

md::LabelledData* RealEvaluatorSuite::data_ = nullptr;

TEST_F(RealEvaluatorSuite, TooLargeRcutForBoxIsATrainingError) {
  // The 10-atom test box is ~8.9 A, so rcut 6.0+ exceeds half the box and the
  // real stack rejects it -- exactly the "unique combination of
  // hyperparameter values causes training to fail" case of section 2.2.4.
  const RealTrainingEvaluator evaluator(data_->train, data_->validation,
                                        tiny_options());
  util::Rng rng(5);
  const ea::Individual individual =
      individual_for({0.004, 0.0001, 11.0, 2.4, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 3);
  EXPECT_TRUE(result.training_error);
}

TEST_F(RealEvaluatorSuite, TrainsAndReportsLosses) {
  // Use a custom representation range by presenting a genome with rcut 4.0 --
  // the decoder passes raw values through, so this exercises the full path.
  const RealTrainingEvaluator evaluator(data_->train, data_->validation,
                                        tiny_options());
  util::Rng rng(6);
  const ea::Individual individual =
      individual_for({0.004, 0.001, 3.2, 2.0, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 3);
  EXPECT_FALSE(result.training_error);
  ASSERT_EQ(result.fitness.size(), 2u);
  EXPECT_GT(result.fitness[1], 0.0);
  EXPECT_GT(result.runtime_minutes, 0.0);
}

TEST_F(RealEvaluatorSuite, WorkspaceArtifactTrailWritten) {
  util::TempDir dir;
  RealEvalOptions options = tiny_options();
  options.workspace_dir = dir.path();
  const RealTrainingEvaluator evaluator(data_->train, data_->validation, options);
  util::Rng rng(7);
  const ea::Individual individual =
      individual_for({0.004, 0.001, 3.2, 2.0, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 3);
  ASSERT_FALSE(result.training_error);
  const auto run_dir = dir.path() / individual.uuid.str();
  EXPECT_TRUE(std::filesystem::exists(run_dir / "input.json"));
  EXPECT_TRUE(std::filesystem::exists(run_dir / "lcurve.out"));
  // Fitness equals the last lcurve row (the paper's step 4c contract).
  const auto [rmse_e, rmse_f] =
      dp::LcurveReader::final_validation_losses(run_dir / "lcurve.out");
  EXPECT_DOUBLE_EQ(result.fitness[0], rmse_e);
  EXPECT_DOUBLE_EQ(result.fitness[1], rmse_f);
}

TEST_F(RealEvaluatorSuite, WallLimitSurfacesAsTimeout) {
  RealEvalOptions options = tiny_options();
  options.base.training.numb_steps = 100000;
  options.wall_limit_seconds = 0.05;
  const RealTrainingEvaluator evaluator(data_->train, data_->validation, options);
  util::Rng rng(8);
  const ea::Individual individual =
      individual_for({0.004, 0.001, 3.2, 2.0, 2.3, 4.6, 4.2}, rng);
  const EvalOutcome result = evaluator.evaluate(individual, 3);
  EXPECT_FALSE(result.training_error);  // classified by the farm, not here
  EXPECT_GT(result.runtime_minutes, 1e6);   // sentinel beyond any task timeout
  EXPECT_TRUE(result.fitness.empty());
}

}  // namespace
}  // namespace dpho::core
