// dp_test CLI: trained-model evaluation on a dataset (the `dp test` analogue).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "dp/trainer.hpp"
#include "md/simulation.hpp"
#include "util/fs.hpp"

#ifndef DPHO_DP_TEST_BIN
#define DPHO_DP_TEST_BIN "dp_test"
#endif

namespace dpho {
namespace {

int run_command(const std::string& command) {
  return WEXITSTATUS(std::system(command.c_str()));
}

class DpTestCli : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new util::TempDir("dp-test-cli");
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);
    sim.num_frames = 8;
    sim.equilibration_steps = 60;
    sim.seed = 44;
    const md::LabelledData data = md::generate_reference_data(sim, 0.25);
    data.validation.save(dir_->path() / "valid");

    dp::TrainInput config;
    config.descriptor.rcut = 3.2;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4, 6};
    config.descriptor.axis_neuron = 2;
    config.descriptor.sel = 24;
    config.fitting.neuron = {8};
    config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
    config.training.numb_steps = 5;
    dp::Trainer trainer(config, data.train, data.validation);
    trainer.train();
    trainer.model().save_file(dir_->path() / "model.json");
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }
  static util::TempDir* dir_;
};

util::TempDir* DpTestCli::dir_ = nullptr;

TEST_F(DpTestCli, EvaluatesModelOnDataset) {
  const std::string out_file = (dir_->path() / "out.txt").string();
  const int code = run_command(std::string(DPHO_DP_TEST_BIN) + " " +
                               (dir_->path() / "model.json").string() + " " +
                               (dir_->path() / "valid").string() + " > " + out_file +
                               " 2>/dev/null");
  ASSERT_EQ(code, 0);
  const std::string out = util::read_file(out_file);
  EXPECT_NE(out.find("energy rmse:"), std::string::npos);
  EXPECT_NE(out.find("force  rmse:"), std::string::npos);
  EXPECT_NE(out.find("frames: 2"), std::string::npos);
}

TEST_F(DpTestCli, PerFrameFlagPrintsRows) {
  const std::string out_file = (dir_->path() / "out2.txt").string();
  const int code = run_command(std::string(DPHO_DP_TEST_BIN) + " " +
                               (dir_->path() / "model.json").string() + " " +
                               (dir_->path() / "valid").string() + " --per-frame > " +
                               out_file + " 2>/dev/null");
  ASSERT_EQ(code, 0);
  const std::string out = util::read_file(out_file);
  EXPECT_NE(out.find("frame 0:"), std::string::npos);
  EXPECT_NE(out.find("frame 1:"), std::string::npos);
}

TEST_F(DpTestCli, BadUsageExitsTwo) {
  EXPECT_EQ(run_command(std::string(DPHO_DP_TEST_BIN) + " >/dev/null 2>&1"), 2);
}

TEST_F(DpTestCli, MissingModelExitsFour) {
  EXPECT_EQ(run_command(std::string(DPHO_DP_TEST_BIN) + " /nonexistent.json " +
                        (dir_->path() / "valid").string() + " >/dev/null 2>&1"),
            4);
}

}  // namespace
}  // namespace dpho
