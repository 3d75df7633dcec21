#include "dp/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "dp/loss.hpp"
#include "frame_harness.hpp"
#include "hpc/thread_pool.hpp"
#include "md/simulation.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "tape_oracle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::dp {
namespace {

/// Shared tiny dataset so the expensive MD runs only once per suite.
class TrainerSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
    sim.num_frames = 16;
    sim.equilibration_steps = 200;
    sim.sample_interval = 3;
    sim.seed = 99;
    data_ = new md::LabelledData(md::generate_reference_data(sim, 0.25));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static TrainInput tiny_config(std::size_t steps = 30) {
    TrainInput config;
    config.descriptor.rcut = 3.5;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4, 8};
    config.descriptor.axis_neuron = 3;
    config.descriptor.sel = 24;
    config.fitting.neuron = {12};
    config.learning_rate.start_lr = 0.01;
    config.learning_rate.stop_lr = 0.003;
    config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
    config.training.numb_steps = steps;
    config.training.disp_freq = 10;
    config.training.seed = 3;
    return config;
  }

  static md::LabelledData* data_;
};

md::LabelledData* TrainerSuite::data_ = nullptr;

TEST_F(TrainerSuite, RunsToCompletionAndRecordsLcurve) {
  Trainer trainer(tiny_config(30), data_->train, data_->validation);
  const TrainResult result = trainer.train();
  EXPECT_EQ(result.steps_completed, 30u);
  EXPECT_GT(result.rmse_e_val, 0.0);
  EXPECT_GT(result.rmse_f_val, 0.0);
  // Rows at steps 0,10,20 plus the final row at 30.
  EXPECT_EQ(result.lcurve.rows().size(), 4u);
  EXPECT_EQ(result.lcurve.rows().back().step, 30u);
}

TEST_F(TrainerSuite, LcurveLearningRateFollowsSchedule) {
  Trainer trainer(tiny_config(30), data_->train, data_->validation);
  const TrainResult result = trainer.train();
  const auto& rows = result.lcurve.rows();
  EXPECT_NEAR(rows.front().lr, 0.01, 1e-12);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].lr, rows[i - 1].lr + 1e-15);
  }
}

TEST_F(TrainerSuite, TrainingReducesForceError) {
  TrainInput config = tiny_config(250);
  Trainer trainer(config, data_->train, data_->validation);
  const TrainResult result = trainer.train();
  const auto& rows = result.lcurve.rows();
  ASSERT_GE(rows.size(), 2u);
  // Force validation error must drop substantially from its initial value
  // (the force prefactor dominates the loss early on).
  EXPECT_LT(rows.back().rmse_f_val, 0.85 * rows.front().rmse_f_val);
}

TEST_F(TrainerSuite, DeterministicForSeed) {
  Trainer a(tiny_config(20), data_->train, data_->validation);
  Trainer b(tiny_config(20), data_->train, data_->validation);
  const TrainResult ra = a.train();
  const TrainResult rb = b.train();
  EXPECT_DOUBLE_EQ(ra.rmse_e_val, rb.rmse_e_val);
  EXPECT_DOUBLE_EQ(ra.rmse_f_val, rb.rmse_f_val);
}

TEST_F(TrainerSuite, SeedChangesOutcome) {
  TrainInput config_a = tiny_config(20);
  TrainInput config_b = tiny_config(20);
  config_b.training.seed = 4;
  Trainer a(config_a, data_->train, data_->validation);
  Trainer b(config_b, data_->train, data_->validation);
  EXPECT_NE(a.train().rmse_f_val, b.train().rmse_f_val);
}

TEST_F(TrainerSuite, WallLimitRaisesTimeoutError) {
  TrainerOptions options;
  options.wall_limit_seconds = 0.0;  // expire immediately
  Trainer trainer(tiny_config(1000), data_->train, data_->validation, options);
  EXPECT_THROW(trainer.train(), util::TimeoutError);
}

TEST_F(TrainerSuite, EmptyDatasetsRejected) {
  md::FrameDataset empty(data_->train.types());
  EXPECT_THROW(Trainer(tiny_config(10), empty, data_->validation), util::ValueError);
  EXPECT_THROW(Trainer(tiny_config(10), data_->train, empty), util::ValueError);
}

TEST_F(TrainerSuite, HugeLearningRateFailsToLearn) {
  // An absurd learning rate either diverges to a non-finite loss (raising
  // the "failed training" error of the paper's workflow) or thrashes without
  // improving; both count as a failed configuration.
  TrainInput config = tiny_config(120);
  config.learning_rate.start_lr = 50.0;
  config.learning_rate.stop_lr = 10.0;
  Trainer trainer(config, data_->train, data_->validation);
  try {
    const TrainResult result = trainer.train();
    const auto& rows = result.lcurve.rows();
    EXPECT_GT(rows.back().rmse_f_val, 0.5 * rows.front().rmse_f_val);
  } catch (const util::Error&) {
    SUCCEED();  // diverged, as the real DeePMD would
  }
}

void expect_bit_identical_lcurves(const TrainResult& a, const TrainResult& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(a.lcurve.rows().size(), b.lcurve.rows().size());
  for (std::size_t i = 0; i < a.lcurve.rows().size(); ++i) {
    const LcurveRow& ra = a.lcurve.rows()[i];
    const LcurveRow& rb = b.lcurve.rows()[i];
    EXPECT_EQ(ra.step, rb.step);
    EXPECT_EQ(bits(ra.rmse_e_val), bits(rb.rmse_e_val)) << "row " << i;
    EXPECT_EQ(bits(ra.rmse_e_trn), bits(rb.rmse_e_trn)) << "row " << i;
    EXPECT_EQ(bits(ra.rmse_f_val), bits(rb.rmse_f_val)) << "row " << i;
    EXPECT_EQ(bits(ra.rmse_f_trn), bits(rb.rmse_f_trn)) << "row " << i;
    EXPECT_EQ(bits(ra.lr), bits(rb.lr)) << "row " << i;
  }
  EXPECT_EQ(bits(a.rmse_e_val), bits(b.rmse_e_val));
  EXPECT_EQ(bits(a.rmse_f_val), bits(b.rmse_f_val));
}

TEST_F(TrainerSuite, OneValidationPassPerLcurveRow) {
  // Each step evaluates batch_size frames; each lcurve row scores the first
  // min(8, n_valid) validation frames plus one training frame, and the final
  // result reuses the last row instead of scoring the validation set again.
  TrainInput config = tiny_config(25);
  config.training.batch_size = 3;
  Trainer trainer(config, data_->train, data_->validation);
  const obs::Counter& frames = obs::metrics().counter("dp.kernels.frames_total");
  const std::int64_t before = frames.value();
  const TrainResult result = trainer.train();
  const std::size_t rows = result.lcurve.rows().size();
  const std::size_t valid = std::min<std::size_t>(8, data_->validation.size());
  EXPECT_EQ(rows, 4u);  // steps 0, 10, 20 and the final 25
  EXPECT_EQ(frames.value() - before,
            static_cast<std::int64_t>(25 * 3 + rows * (valid + 1)));
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const LcurveRow& last = result.lcurve.rows().back();
  EXPECT_EQ(bits(result.rmse_e_val), bits(last.rmse_e_val));
  EXPECT_EQ(bits(result.rmse_f_val), bits(last.rmse_f_val));
}

TEST_F(TrainerSuite, EachTrainCallCountsOneTraining) {
  const obs::Counter& trainings = obs::metrics().counter("trainer.trainings_total");
  const std::int64_t before = trainings.value();
  Trainer trainer(tiny_config(2), data_->train, data_->validation);
  trainer.train();
  EXPECT_EQ(trainings.value() - before, 1);
  trainer.train();
  EXPECT_EQ(trainings.value() - before, 2);
}

TEST_F(TrainerSuite, ParallelLcurveBitIdenticalToSerial) {
  // The determinism contract of the data-parallel hot path: for a given seed
  // the lcurve is bit-identical at ANY thread count (fixed-order reduction).
  TrainInput config = tiny_config(20);
  config.training.batch_size = 4;
  Trainer serial(config, data_->train, data_->validation);
  const TrainResult serial_result = serial.train();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    TrainerOptions options;
    options.num_threads = threads;
    Trainer threaded(config, data_->train, data_->validation, options);
    const TrainResult threaded_result = threaded.train();
    expect_bit_identical_lcurves(serial_result, threaded_result);
    EXPECT_EQ(threaded_result.steps_completed, serial_result.steps_completed);
  }
}

TEST_F(TrainerSuite, InjectedPoolMatchesOwnedPool) {
  TrainInput config = tiny_config(12);
  config.training.batch_size = 3;
  TrainerOptions owned;
  owned.num_threads = 3;
  Trainer a(config, data_->train, data_->validation, owned);
  const TrainResult result_owned = a.train();

  hpc::ThreadPool shared(3);
  TrainerOptions injected;
  injected.pool = &shared;
  Trainer b(config, data_->train, data_->validation, injected);
  const TrainResult result_injected = b.train();
  expect_bit_identical_lcurves(result_owned, result_injected);
}

TEST_F(TrainerSuite, TapeOracleModeTracksAnalyticDefault) {
  // The tape oracle drives one short Adam loop next to the fused kernels:
  // same initial model, seed, frames, batches and schedule, one copy stepped
  // on oracle::loss_and_grad summed per frame and one on
  // FastGraph::loss_and_grad_fused.  The batch losses and gradients must
  // agree to 1e-4 relative at every step (not bit-identical -- summation
  // orders differ -- but far closer than any real hyperparameter effect);
  // the gradient check is what catches a wrong second-order term, which
  // Adam's per-parameter scaling hides from the loss for many steps.
  const TrainInput config = tiny_config(20);
  const md::FrameDataset& data = data_->train;
  DeepPotModel tape_model(config, data.types(), data.mean_energy_per_atom(),
                          util::hash_combine(config.training.seed, 0xDEE9));
  DeepPotModel fused_model = tape_model;
  const FastGraph fast(fused_model);
  std::vector<FrameGeometry> geometries;
  for (std::size_t f = 0; f < data.size(); ++f) {
    geometries.push_back(test_harness::geometry_of(fused_model, data.frame(f)));
  }
  const std::size_t steps = config.training.numb_steps;
  const nn::ExponentialDecay schedule(config.scaled_start_lr(),
                                      config.learning_rate.stop_lr, steps,
                                      config.learning_rate.decay_steps);
  const DeepmdLoss loss(config.loss, schedule);

  constexpr std::size_t kBatch = 4;
  std::vector<double> tape_params = tape_model.gather_params();
  std::vector<double> fused_params = tape_params;
  nn::Adam tape_adam(tape_params.size());
  nn::Adam fused_adam(fused_params.size());
  std::vector<double> tape_grad(tape_params.size());
  std::vector<double> fused_grad(fused_params.size());
  std::vector<FrameTarget> targets(kBatch);
  std::vector<double> fused_losses(kBatch);
  FastWorkspace workspace;
  util::Rng rng(config.training.seed);
  for (std::size_t step = 0; step < steps; ++step) {
    const LossWeights weights = loss.weights_at(step);
    double tape_loss = 0.0;
    std::fill(tape_grad.begin(), tape_grad.end(), 0.0);
    for (std::size_t b = 0; b < kBatch; ++b) {
      const auto f = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
      const md::Frame& frame = data.frame(f);
      targets[b] = FrameTarget{&geometries[f], frame.energy, frame.forces};
      const oracle::LossGrad tape =
          oracle::loss_and_grad(tape_model, frame, frame.energy, frame.forces, weights);
      tape_loss += tape.loss;
      for (std::size_t p = 0; p < tape_grad.size(); ++p) {
        tape_grad[p] += tape.grad[p] / kBatch;
      }
    }
    fast.loss_and_grad_fused(targets, weights, workspace, fused_grad, fused_losses);
    double fused_loss = 0.0;
    for (const double l : fused_losses) fused_loss += l;
    for (double& g : fused_grad) g /= kBatch;
    EXPECT_NEAR(fused_loss, tape_loss, 1e-4 * std::abs(tape_loss)) << "step " << step;
    double scale = 0.0;
    for (const double g : tape_grad) scale = std::max(scale, std::abs(g));
    for (std::size_t p = 0; p < tape_grad.size(); ++p) {
      ASSERT_NEAR(fused_grad[p], tape_grad[p], 1e-4 * scale)
          << "step " << step << " param " << p;
    }

    tape_adam.step(tape_params, tape_grad, schedule.lr(step));
    fused_adam.step(fused_params, fused_grad, schedule.lr(step));
    tape_model.scatter_params(tape_params);
    fused_model.scatter_params(fused_params);
  }
}

TEST_F(TrainerSuite, WorkerScalingAffectsEffectiveLr) {
  TrainInput linear = tiny_config(10);
  linear.learning_rate.scale_by_worker = nn::LrScaling::kLinear;
  linear.num_workers = 6;
  Trainer trainer(linear, data_->train, data_->validation);
  const TrainResult result = trainer.train();
  EXPECT_NEAR(result.lcurve.rows().front().lr, 0.01 * 6.0, 1e-12);
}

}  // namespace
}  // namespace dpho::dp
