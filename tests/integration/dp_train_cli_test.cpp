// The subprocess contract of section 2.2.4: invoke the dp_train binary the
// way the paper's workflow invokes `dp`, then read lcurve.out.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "dp/config.hpp"
#include "dp/lcurve.hpp"
#include "md/simulation.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

#ifndef DPHO_DP_TRAIN_BIN
#define DPHO_DP_TRAIN_BIN "dp_train"
#endif

namespace dpho {
namespace {

int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

class DpTrainCli : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new util::TempDir("dp-train-cli");
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);
    sim.num_frames = 10;
    sim.equilibration_steps = 40;
    sim.seed = 15;
    const md::LabelledData data = md::generate_reference_data(sim, 0.25);
    data.train.save(dir_->path() / "train");
    data.validation.save(dir_->path() / "valid");

    dp::TrainInput config;
    config.descriptor.rcut = 3.2;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4, 6};
    config.descriptor.axis_neuron = 2;
    config.descriptor.sel = 24;
    config.fitting.neuron = {8};
    config.learning_rate.start_lr = 0.004;
    config.learning_rate.stop_lr = 0.001;
    config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
    config.training.numb_steps = 12;
    config.training.disp_freq = 6;
    util::write_file(dir_->path() / "input.json", config.to_json().dump(2));
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static std::string base_command() {
    return std::string(DPHO_DP_TRAIN_BIN) + " " + (dir_->path() / "input.json").string() +
           " " + (dir_->path() / "train").string() + " " +
           (dir_->path() / "valid").string();
  }

  static util::TempDir* dir_;
};

util::TempDir* DpTrainCli::dir_ = nullptr;

TEST_F(DpTrainCli, TrainsAndWritesArtifacts) {
  const auto out = dir_->path() / "run1";
  std::filesystem::create_directories(out);
  const int code =
      run_command(base_command() + " --out " + out.string() + " >/dev/null 2>&1");
  ASSERT_EQ(code, 0);
  ASSERT_TRUE(std::filesystem::exists(out / "lcurve.out"));
  ASSERT_TRUE(std::filesystem::exists(out / "model.json"));
  const auto rows = dp::LcurveReader::read(out / "lcurve.out");
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows.back().step, 12u);
  const auto [rmse_e, rmse_f] =
      dp::LcurveReader::final_validation_losses(out / "lcurve.out");
  EXPECT_GT(rmse_f, 0.0);
  EXPECT_GT(rmse_e, 0.0);
}

TEST_F(DpTrainCli, BadUsageExitsTwo) {
  EXPECT_EQ(run_command(std::string(DPHO_DP_TRAIN_BIN) + " >/dev/null 2>&1"), 2);
  EXPECT_EQ(run_command(base_command() + " --bogus >/dev/null 2>&1"), 2);
}

TEST_F(DpTrainCli, RemovedEngineFlagsExitTwo) {
  // The analytic kernels are the only gradient engine and the fused group
  // width is a constant: neither is selectable from the command line.
  EXPECT_EQ(run_command(base_command() + " --backward-mode tape >/dev/null 2>&1"), 2);
  EXPECT_EQ(run_command(base_command() + " --fuse-frames 2 >/dev/null 2>&1"), 2);
}

TEST_F(DpTrainCli, MissingDataExitsFour) {
  const int code = run_command(std::string(DPHO_DP_TRAIN_BIN) + " " +
                               (dir_->path() / "input.json").string() + " /nonexistent " +
                               (dir_->path() / "valid").string() + " >/dev/null 2>&1");
  EXPECT_EQ(code, 4);
}

TEST_F(DpTrainCli, WallLimitExitsThree) {
  // A step budget far beyond what 10 ms allows.
  dp::TrainInput config = dp::TrainInput::from_json_text(
      util::read_file(dir_->path() / "input.json"));
  config.training.numb_steps = 1000000;
  util::write_file(dir_->path() / "input_long.json", config.to_json().dump(2));
  const auto out = dir_->path() / "run_timeout";
  std::filesystem::create_directories(out);
  const int code = run_command(
      std::string(DPHO_DP_TRAIN_BIN) + " " + (dir_->path() / "input_long.json").string() +
      " " + (dir_->path() / "train").string() + " " + (dir_->path() / "valid").string() +
      " --out " + out.string() + " --wall-limit 0.01 >/dev/null 2>&1");
  EXPECT_EQ(code, 3);
}

TEST_F(DpTrainCli, InvalidConfigExitsFour) {
  dp::TrainInput config;
  config.descriptor.rcut = 3.2;
  config.descriptor.rcut_smth = 2.0;
  util::Json doc = config.to_json();
  doc["model"]["descriptor"]["rcut_smth"] = 9.0;  // > rcut
  util::write_file(dir_->path() / "input_bad.json", doc.dump(2));
  const int code = run_command(
      std::string(DPHO_DP_TRAIN_BIN) + " " + (dir_->path() / "input_bad.json").string() +
      " " + (dir_->path() / "train").string() + " " + (dir_->path() / "valid").string() +
      " >/dev/null 2>&1");
  EXPECT_EQ(code, 4);
}

TEST_F(DpTrainCli, NegativeSelFailsNamingTheKey) {
  util::Json doc = util::Json::parse(util::read_file(dir_->path() / "input.json"));
  doc["model"]["descriptor"]["sel"] = -1;
  util::write_file(dir_->path() / "input_sel.json", doc.dump(2));
  const auto err = dir_->path() / "sel.err";
  const int code = run_command(
      std::string(DPHO_DP_TRAIN_BIN) + " " + (dir_->path() / "input_sel.json").string() +
      " " + (dir_->path() / "train").string() + " " + (dir_->path() / "valid").string() +
      " --out " + (dir_->path() / "run_sel").string() + " >/dev/null 2>" + err.string());
  EXPECT_EQ(code, 4);
  EXPECT_NE(util::read_file(err).find("sel"), std::string::npos) << util::read_file(err);
  EXPECT_FALSE(std::filesystem::exists(dir_->path() / "run_sel" / "model.json"));
}

}  // namespace
}  // namespace dpho
