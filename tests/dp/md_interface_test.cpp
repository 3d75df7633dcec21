#include "dp/md_interface.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dp/trainer.hpp"
#include "md/simulation.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

class NnpMdSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
    sim.num_frames = 12;
    sim.equilibration_steps = 200;
    sim.sample_interval = 3;
    sim.seed = 51;
    data_ = new md::LabelledData(md::generate_reference_data(sim, 0.25));

    TrainInput config;
    config.descriptor.rcut = 3.2;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4, 8};
    config.descriptor.axis_neuron = 3;
    config.descriptor.sel = 24;
    config.fitting.neuron = {12};
    config.learning_rate.start_lr = 0.01;
    config.learning_rate.stop_lr = 0.003;
    config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
    config.training.numb_steps = 40;
    config.training.disp_freq = 40;
    Trainer trainer(config, data_->train, data_->validation);
    trainer.train();
    model_ = new DeepPotModel(trainer.model());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  static md::SystemState initial_state(double temperature = 150.0) {
    util::Rng rng(4);
    md::SystemState state =
        md::SystemSpec::scaled_system(1).create_initial_state(temperature, rng);
    // Start from a sampled (equilibrated) configuration, not the lattice.
    state.positions = data_->train.frame(0).positions;
    return state;
  }

  static md::LabelledData* data_;
  static DeepPotModel* model_;
};

md::LabelledData* NnpMdSuite::data_ = nullptr;
DeepPotModel* NnpMdSuite::model_ = nullptr;

TEST_F(NnpMdSuite, ProviderMatchesModelPredictions) {
  const md::ForceProvider provider = make_force_provider(*model_);
  md::SystemState state = initial_state();
  const md::ForceEnergy fe = provider(state);
  md::Frame frame;
  frame.positions = state.positions;
  frame.forces.resize(state.size());
  frame.box_length = state.box_length;
  // The provider runs through the chunked MdSession, which sums energies and
  // force adjoints in a different (but fixed) order than the whole-frame
  // FastGraph path -- agreement is to rounding, not bitwise.
  const md::ForceEnergy ref = Potential::borrow(*model_).evaluate(frame);
  const double scale = std::max(1.0, std::abs(ref.energy));
  EXPECT_NEAR(fe.energy, ref.energy, 1e-9 * scale);
  ASSERT_EQ(fe.forces.size(), ref.forces.size());
  for (std::size_t i = 0; i < ref.forces.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_NEAR(fe.forces[i][k], ref.forces[i][k], 1e-9)
          << "atom " << i << " component " << k;
    }
  }
}

TEST_F(NnpMdSuite, NveOnLearnedSurfaceConservesEnergy) {
  // Forces are exact analytic gradients of a smooth learned energy, so NVE
  // on the model conserves total energy to integrator error -- the paper's
  // force-consistency requirement for stable dynamics (section 3.2).
  md::SystemState state = initial_state(100.0);
  const auto energies = run_nnp_md(*model_, state, 0.5, 200);
  ASSERT_EQ(energies.size(), 201u);
  double max_drift = 0.0;
  for (double e : energies) max_drift = std::max(max_drift, std::abs(e - energies[0]));
  const double kinetic_scale = std::max(1.0, std::abs(md::kinetic_energy(state)));
  EXPECT_LT(max_drift, 0.1 * kinetic_scale);
}

TEST_F(NnpMdSuite, DynamicsStaysBounded) {
  md::SystemState state = initial_state(200.0);
  run_nnp_md(*model_, state, 0.5, 150);
  const md::Box box(state.box_length);
  for (const md::Vec3& r : state.positions) {
    const md::Vec3 wrapped = box.wrap(r);
    EXPECT_TRUE(std::isfinite(wrapped[0]));
  }
  EXPECT_LT(md::kinetic_temperature(state), 5000.0);  // no explosion
}

TEST_F(NnpMdSuite, AtomCountMismatchThrows) {
  const md::ForceProvider provider = make_force_provider(*model_);
  util::Rng rng(5);
  md::SystemState wrong =
      md::SystemSpec::scaled_system(2).create_initial_state(100.0, rng);
  EXPECT_THROW(provider(wrong), util::ValueError);
}

}  // namespace
}  // namespace dpho::dp
