// NVE MD on a trained model through dp::MdSession: the end use the paper's
// optimization serves.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "dp/md_session.hpp"
#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "md/integrator.hpp"
#include "md/simulation.hpp"

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

  /// `steps` of NVE velocity Verlet on the learned surface; returns the
  /// total energy (potential + kinetic) before the first and after each step.
  static std::vector<double> run_nve(md::SystemState& state, std::size_t steps) {
    const std::unique_ptr<MdSession> session =
        Potential::borrow(*model_).make_md_session();
    const md::VelocityVerlet integrator(0.5);  // fs
    std::vector<md::Vec3> forces(state.size());
    std::vector<double> total{session->compute(state, forces) +
                              md::kinetic_energy(state)};
    for (std::size_t step = 0; step < steps; ++step) {
      total.push_back(integrator.step(state, *session, forces) +
                      md::kinetic_energy(state));
    }
    return total;
  }

  static md::LabelledData* data_;
  static DeepPotModel* model_;
};

md::LabelledData* NnpMdSuite::data_ = nullptr;
DeepPotModel* NnpMdSuite::model_ = nullptr;

TEST_F(NnpMdSuite, NveOnLearnedSurfaceConservesEnergy) {
  // Forces are exact analytic gradients of a smooth learned energy, so NVE
  // on the model conserves total energy to integrator error -- the paper's
  // force-consistency requirement for stable dynamics (section 3.2).
  md::SystemState state = initial_state(100.0);
  const std::vector<double> energies = run_nve(state, 200);
  ASSERT_EQ(energies.size(), 201u);
  double max_drift = 0.0;
  for (double e : energies) max_drift = std::max(max_drift, std::abs(e - energies[0]));
  const double kinetic_scale = std::max(1.0, std::abs(md::kinetic_energy(state)));
  EXPECT_LT(max_drift, 0.1 * kinetic_scale);
}

TEST_F(NnpMdSuite, DynamicsStaysBounded) {
  md::SystemState state = initial_state(200.0);
  run_nve(state, 150);
  const md::Box box(state.box_length);
  for (const md::Vec3& r : state.positions) {
    const md::Vec3 wrapped = box.wrap(r);
    EXPECT_TRUE(std::isfinite(wrapped[0]));
  }
  EXPECT_LT(md::kinetic_temperature(state), 5000.0);  // no explosion
}

}  // namespace
}  // namespace dpho::dp
