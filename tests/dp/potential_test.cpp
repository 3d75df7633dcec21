#include "dp/potential.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dp/md_session.hpp"
#include "hpc/thread_pool.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

#include "frame_harness.hpp"

namespace dpho::dp {
namespace {

using test_harness::random_frame;
using test_harness::random_types;
using test_harness::small_config;

DeepPotModel tiny_model(std::uint64_t seed, std::size_t atoms = 8) {
  util::Rng rng(seed);
  return DeepPotModel(ModelSpec::from_train_input(small_config(nn::Activation::kTanh)),
                      random_types(rng, atoms), /*energy_bias_per_atom=*/-1.5, seed);
}

/// The model's prediction straight from the kernels, bypassing Potential.
md::ForceEnergy direct_kernels(const DeepPotModel& model, const md::Frame& frame) {
  FastWorkspace workspace;
  return FastGraph(model).energy_forces(test_harness::geometry_of(model, frame), workspace);
}

TEST(Potential, MatchesModelEnergyForces) {
  DeepPotModel model = tiny_model(11);
  util::Rng rng(12);
  const md::Frame frame = random_frame(rng);
  const md::ForceEnergy direct = direct_kernels(model, frame);
  const Potential potential(std::move(model));
  const md::ForceEnergy via = potential.evaluate(frame);
  EXPECT_EQ(via.energy, direct.energy);
  ASSERT_EQ(via.forces.size(), direct.forces.size());
  for (std::size_t i = 0; i < via.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_EQ(via.forces[i][k], direct.forces[i][k]);
  }
}

TEST(Potential, BorrowSeesParameterUpdates) {
  DeepPotModel model = tiny_model(21);
  const Potential potential = Potential::borrow(model);
  util::Rng rng(22);
  const md::Frame frame = random_frame(rng);
  const double before = potential.evaluate(frame).energy;
  std::vector<double> params = model.gather_params();
  for (double& p : params) p *= 1.25;
  model.scatter_params(params);
  const double after = potential.evaluate(frame).energy;
  EXPECT_NE(before, after);
  EXPECT_EQ(after, direct_kernels(model, frame).energy);
}

TEST(Potential, CheckpointRoundTripIsExact) {
  DeepPotModel model = tiny_model(31);
  util::Rng rng(32);
  const md::Frame frame = random_frame(rng);
  const md::ForceEnergy direct = direct_kernels(model, frame);
  util::TempDir dir;
  model.save_file(dir.path() / "model.json");
  const Potential loaded = Potential::load_file((dir.path() / "model.json").string());
  const md::ForceEnergy via = loaded.evaluate(frame);
  EXPECT_EQ(via.energy, direct.energy);
  for (std::size_t i = 0; i < via.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_EQ(via.forces[i][k], direct.forces[i][k]);
  }
}

TEST(Potential, BatchMatchesSerialAtAnyThreadCount) {
  const Potential potential(tiny_model(41));
  util::Rng rng(42);
  std::vector<md::Frame> frames;
  for (int i = 0; i < 6; ++i) frames.push_back(random_frame(rng));
  const std::vector<md::ForceEnergy> serial = potential.evaluate(frames, nullptr);
  hpc::ThreadPool pool(4);
  const std::vector<md::ForceEnergy> parallel = potential.evaluate(frames, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t f = 0; f < serial.size(); ++f) {
    EXPECT_EQ(serial[f].energy, parallel[f].energy);
    for (std::size_t i = 0; i < serial[f].forces.size(); ++i) {
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(serial[f].forces[i][k], parallel[f].forces[i][k]);
      }
    }
  }
}

TEST(Potential, ConcurrentEvaluateIsSafeAndDeterministic) {
  const Potential potential(tiny_model(51));
  util::Rng rng(52);
  std::vector<md::Frame> frames;
  for (int i = 0; i < 8; ++i) frames.push_back(random_frame(rng));
  std::vector<double> expected;
  for (const md::Frame& frame : frames) {
    expected.push_back(potential.evaluate(frame).energy);
  }
  hpc::ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    const std::vector<md::ForceEnergy> results = potential.evaluate(frames, &pool);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      EXPECT_EQ(results[f].energy, expected[f]);
    }
  }
}

TEST(Potential, RejectsMismatchedAtomCount) {
  const Potential potential(tiny_model(61, /*atoms=*/8));
  util::Rng rng(62);
  const md::Frame frame = random_frame(rng, /*atoms=*/5);
  EXPECT_THROW(potential.evaluate(frame), util::ValueError);
}

TEST(Potential, RejectsNonFiniteCoordinateNamingTheAtom) {
  // The neighbor build behind evaluate() checks the positions before it
  // bins them, so the typed error comes before any coordinate is cast.
  const Potential potential(tiny_model(13));
  util::Rng rng(14);
  const md::Frame frame = random_frame(rng);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    md::Frame broken = frame;
    broken.positions[6][0] = bad;
    try {
      potential.evaluate(broken);
      ADD_FAILURE() << "no error for coordinate " << bad;
    } catch (const util::ValueError& e) {
      EXPECT_NE(std::string(e.what()).find("atom 6 "), std::string::npos) << e.what();
    }
  }
}

TEST(Potential, RejectsNullModel) {
  // The pointer is checked before the kernel graph is built from it.
  EXPECT_THROW(Potential(std::shared_ptr<const DeepPotModel>()), util::ValueError);
}

TEST(Potential, MdSessionSurvivesSourcePotential) {
  // The session shares the model, so it outlives the Potential it came from.
  const std::unique_ptr<MdSession> session = Potential(tiny_model(71)).make_md_session();
  md::SystemState state;
  util::Rng rng(72);
  const md::Frame frame = random_frame(rng);
  state.types.assign(frame.positions.size(), md::Species::kAl);
  state.positions = frame.positions;
  state.velocities.assign(frame.positions.size(), md::Vec3{});
  state.box_length = frame.box_length;
  std::vector<md::Vec3> forces(state.size());
  EXPECT_NO_THROW(session->compute(state, forces));
}

}  // namespace
}  // namespace dpho::dp
