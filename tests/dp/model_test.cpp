#include "dp/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dp/potential.hpp"
#include "md/box.hpp"
#include "md/simulation.hpp"
#include "tape_oracle.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace dpho::dp {
namespace {

TrainInput tiny_config() {
  TrainInput config;
  config.descriptor.rcut = 3.2;
  config.descriptor.rcut_smth = 2.0;
  config.descriptor.neuron = {4, 8};
  config.descriptor.axis_neuron = 3;
  config.descriptor.sel = 24;
  config.fitting.neuron = {12, 12};
  return config;
}

md::Frame sample_frame(std::uint64_t seed = 5) {
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
  sim.num_frames = 1;
  sim.equilibration_steps = 40;
  sim.seed = seed;
  md::Simulation simulation(sim);
  return simulation.run().frame(0);
}

std::vector<md::Species> frame_types() {
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(1);
  util::Rng rng(1);
  return sim.spec.create_initial_state(300.0, rng).types;
}

TEST(Model, ParameterCountConsistent) {
  DeepPotModel model(tiny_config(), frame_types(), -1.0, 3);
  EXPECT_GT(model.num_params(), 0u);
  EXPECT_EQ(model.gather_params().size(), model.num_params());
}

TEST(Model, GatherScatterRoundTrip) {
  DeepPotModel model(tiny_config(), frame_types(), -1.0, 3);
  std::vector<double> params = model.gather_params();
  for (double& p : params) p += 0.01;
  model.scatter_params(params);
  EXPECT_EQ(model.gather_params(), params);
}

TEST(Model, EnergyDoublePathMatchesTapePath) {
  DeepPotModel model(tiny_config(), frame_types(), -2.5, 7);
  const md::Frame frame = sample_frame();
  const md::ForceEnergy fe = Potential::borrow(model).evaluate(frame);
  EXPECT_NEAR(oracle::energy(model, frame), fe.energy, 1e-9);
}

TEST(Model, ForcesMatchFiniteDifferenceOfEnergy) {
  DeepPotModel model(tiny_config(), frame_types(), 0.0, 11);
  md::Frame frame = sample_frame();
  const md::ForceEnergy fe = Potential::borrow(model).evaluate(frame);
  // Use the reference energy at perturbed coordinates so the neighbor
  // topology is recomputed consistently by oracle::energy().
  for (std::size_t a = 0; a < 4; ++a) {
    for (int k = 0; k < 3; ++k) {
      const double h = 1e-5;
      md::Frame plus = frame;
      md::Frame minus = frame;
      plus.positions[a][k] += h;
      minus.positions[a][k] -= h;
      const double numeric =
          -(oracle::energy(model, plus) - oracle::energy(model, minus)) / (2.0 * h);
      EXPECT_NEAR(fe.forces[a][k], numeric, 5e-3 * std::max(1.0, std::abs(numeric)))
          << "atom " << a << " axis " << k;
    }
  }
}

TEST(Model, EnergyInvariantUnderRigidTranslation) {
  DeepPotModel model(tiny_config(), frame_types(), 0.0, 13);
  md::Frame frame = sample_frame();
  const double base = oracle::energy(model, frame);
  for (auto& r : frame.positions) r = r + md::Vec3{0.37, -1.21, 2.45};
  EXPECT_NEAR(oracle::energy(model, frame), base, 1e-8);
}

TEST(Model, EnergyInvariantUnderGlobalRotation) {
  // Rotate all positions about the box center; in a cubic periodic box a
  // general rotation changes the wrapped geometry, so test on an isolated
  // cluster far from the walls of a big box.
  TrainInput config = tiny_config();
  DeepPotModel model(config, frame_types(), 0.0, 17);
  md::Frame frame = sample_frame();
  frame.box_length = 100.0;  // effectively isolated cluster
  // Squeeze the cluster to the center.
  for (auto& r : frame.positions) {
    r = md::Vec3{40.0 + 0.2 * r[0], 40.0 + 0.2 * r[1], 40.0 + 0.2 * r[2]};
  }
  const double base = oracle::energy(model, frame);
  const double c = std::cos(0.7), s = std::sin(0.7);
  for (auto& r : frame.positions) {
    const double x = r[0] - 50.0, y = r[1] - 50.0;
    r = md::Vec3{50.0 + c * x - s * y, 50.0 + s * x + c * y, r[2]};
  }
  EXPECT_NEAR(oracle::energy(model, frame), base, 1e-8);
}

TEST(Model, EnergyInvariantUnderLikeAtomPermutation) {
  DeepPotModel model(tiny_config(), frame_types(), 0.0, 19);
  md::Frame frame = sample_frame();
  const double base = oracle::energy(model, frame);
  // Swap two Cl atoms (types are [Al Al K Cl...Cl] shuffled; find two equal).
  const auto types = frame_types();
  std::size_t first = types.size(), second = types.size();
  for (std::size_t i = 0; i < types.size() && second == types.size(); ++i) {
    for (std::size_t j = i + 1; j < types.size(); ++j) {
      if (types[i] == types[j]) {
        first = i;
        second = j;
        break;
      }
    }
  }
  ASSERT_LT(second, types.size());
  std::swap(frame.positions[first], frame.positions[second]);
  EXPECT_NEAR(oracle::energy(model, frame), base, 1e-9);
}

TEST(Model, EnergySmoothAsNeighborCrossesCutoff) {
  // Move one atom through the cutoff sphere of another; energy stays
  // continuous (the switching function kills the contribution smoothly).
  DeepPotModel model(tiny_config(), frame_types(), 0.0, 23);
  md::Frame frame = sample_frame();
  double prev = oracle::energy(model, frame);
  double max_jump = 0.0;
  for (int i = 0; i < 60; ++i) {
    frame.positions[0][0] += 0.02;
    const double e = oracle::energy(model, frame);
    max_jump = std::max(max_jump, std::abs(e - prev));
    prev = e;
  }
  EXPECT_LT(max_jump, 0.75);  // no discontinuous jumps
}

TEST(Model, RcutZeroNeighborLimit) {
  // An isolated atom configuration yields just the biases.
  TrainInput config = tiny_config();
  DeepPotModel model(config, {md::Species::kAl, md::Species::kCl}, -3.0, 29);
  md::Frame frame;
  frame.box_length = 50.0;
  frame.positions = {md::Vec3{5.0, 5.0, 5.0}, md::Vec3{45.0, 45.0, 45.0}};
  frame.forces.resize(2);
  frame.energy = 0.0;
  const md::ForceEnergy fe = Potential::borrow(model).evaluate(frame);
  // No neighbors: descriptor is zero; energy = sum of fit(0) + bias terms.
  for (const md::Vec3& f : fe.forces) {
    for (int k = 0; k < 3; ++k) EXPECT_NEAR(f[k], 0.0, 1e-10);
  }
  EXPECT_TRUE(std::isfinite(fe.energy));
}

TEST(Model, SaveLoadRoundTripPreservesPredictions) {
  DeepPotModel model(tiny_config(), frame_types(), -2.0, 31);
  const md::Frame frame = sample_frame();
  const double before = oracle::energy(model, frame);
  util::TempDir dir;
  model.save_file(dir.path() / "model.json");
  const DeepPotModel loaded = DeepPotModel::load_file(dir.path() / "model.json");
  EXPECT_NEAR(oracle::energy(loaded, frame), before, 1e-12);
}

TEST(Model, TypeOutsideTheSpeciesThrows) {
  std::vector<md::Species> types = frame_types();
  types.back() = static_cast<md::Species>(md::kNumSpecies);
  try {
    const DeepPotModel model(tiny_config(), types, 0.0, 1);
    ADD_FAILURE() << "an out-of-range type was accepted";
  } catch (const util::ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("atom " + std::to_string(types.size() - 1)),
              std::string::npos)
        << e.what();
  }
}

TEST(Model, DifferentSeedsGiveDifferentInitialModels) {
  DeepPotModel a(tiny_config(), frame_types(), 0.0, 1);
  DeepPotModel b(tiny_config(), frame_types(), 0.0, 2);
  const md::Frame frame = sample_frame();
  EXPECT_NE(oracle::energy(a, frame), oracle::energy(b, frame));
}

TEST(Model, ActivationChoiceChangesPrediction) {
  TrainInput tanh_config = tiny_config();
  TrainInput relu_config = tiny_config();
  relu_config.descriptor.activation = nn::Activation::kRelu;
  DeepPotModel a(tanh_config, frame_types(), 0.0, 3);
  DeepPotModel b(relu_config, frame_types(), 0.0, 3);
  const md::Frame frame = sample_frame();
  EXPECT_NE(oracle::energy(a, frame), oracle::energy(b, frame));
}

}  // namespace
}  // namespace dpho::dp
