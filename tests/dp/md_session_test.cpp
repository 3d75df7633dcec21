#include "dp/md_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "hpc/thread_pool.hpp"
#include "md/integrator.hpp"
#include "md/simulation.hpp"
#include "support/alloc_hook.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

bool bitwise_equal(const std::vector<md::Vec3>& a,
                   const std::vector<md::Vec3>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(md::Vec3)) == 0;
}

// One tiny trained model shared by the whole suite (training dominates the
// fixture cost; the sessions under test are cheap).
class NnpSessionSuite : public ::testing::Test {
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
    potential_ = new Potential(trainer.model());
  }
  static void TearDownTestSuite() {
    delete potential_;
    delete data_;
    potential_ = nullptr;
    data_ = nullptr;
  }

  static md::SystemState initial_state(double temperature = 120.0) {
    util::Rng rng(4);
    md::SystemState state =
        md::SystemSpec::scaled_system(1).create_initial_state(temperature, rng);
    state.positions = data_->train.frame(0).positions;
    return state;
  }

  struct Trajectory {
    md::SystemState state;
    std::vector<md::Vec3> forces;
    std::size_t session_steps = 0;
    std::size_t rebuilds = 0;
  };

  static Trajectory run_trajectory(const md::SessionOptions& options,
                                   std::size_t steps) {
    Trajectory out;
    out.state = initial_state();
    auto session = potential_->make_md_session(options);
    const md::VelocityVerlet integrator(0.5);
    out.forces.assign(out.state.size(), md::Vec3{0.0, 0.0, 0.0});
    session->compute(out.state, out.forces);
    for (std::size_t step = 0; step < steps; ++step) {
      integrator.step(out.state, *session, out.forces);
    }
    out.session_steps = session->steps();
    out.rebuilds = session->neighbor_rebuilds();
    return out;
  }

  static md::LabelledData* data_;
  static Potential* potential_;
};

md::LabelledData* NnpSessionSuite::data_ = nullptr;
Potential* NnpSessionSuite::potential_ = nullptr;

TEST_F(NnpSessionSuite, MatchesWholeFramePotentialEvaluate) {
  const md::SystemState state = initial_state();
  auto session = potential_->make_md_session();
  std::vector<md::Vec3> forces(state.size());
  const double energy = session->compute(state, forces);

  md::Frame frame;
  frame.positions = state.positions;
  frame.forces.resize(state.size());
  frame.box_length = state.box_length;
  const md::ForceEnergy reference = potential_->evaluate(frame);
  // Chunked session vs whole-frame FastGraph: different (fixed) summation
  // orders, so agreement is to rounding.
  EXPECT_NEAR(energy, reference.energy,
              1e-9 * std::max(1.0, std::abs(reference.energy)));
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_NEAR(forces[i][k], reference.forces[i][k], 1e-9)
          << "atom " << i << " component " << k;
    }
  }
}

TEST_F(NnpSessionSuite, ThreadCountParityBitwise) {
  md::SessionOptions serial;
  serial.chunk_atoms = 2;  // 5 chunks on 10 atoms
  const Trajectory baseline = run_trajectory(serial, 40);
  auto probe = potential_->make_md_session(serial);
  std::vector<md::Vec3> probe_forces(initial_state().size());
  probe->compute(initial_state(), probe_forces);
  EXPECT_GT(probe->num_chunks(), 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    hpc::ThreadPool pool(threads);
    md::SessionOptions parallel = serial;
    parallel.pool = &pool;
    const Trajectory run = run_trajectory(parallel, 40);
    EXPECT_TRUE(bitwise_equal(run.state.positions, baseline.state.positions))
        << threads << " threads";
    EXPECT_TRUE(bitwise_equal(run.forces, baseline.forces))
        << threads << " threads";
  }
}

TEST_F(NnpSessionSuite, SessionVsFreshRebuildBitwise) {
  md::SessionOptions skinned;
  skinned.skin = 0.6;
  md::SessionOptions fresh;
  fresh.skin = 0.0;
  const Trajectory a = run_trajectory(skinned, 80);
  const Trajectory b = run_trajectory(fresh, 80);
  EXPECT_TRUE(bitwise_equal(a.state.positions, b.state.positions));
  EXPECT_TRUE(bitwise_equal(a.state.velocities, b.state.velocities));
  EXPECT_TRUE(bitwise_equal(a.forces, b.forces));
  EXPECT_LT(a.rebuilds, a.session_steps);
  EXPECT_EQ(b.rebuilds, b.session_steps);
}

TEST_F(NnpSessionSuite, SteadyStateStepsAllocateNothing) {
  md::SystemState state = initial_state();
  hpc::ThreadPool pool(2);
  md::SessionOptions options;
  options.skin = 0.6;
  options.chunk_atoms = 4;
  options.pool = &pool;
  auto session = potential_->make_md_session(options);
  std::vector<md::Vec3> forces(state.size());
  for (int warm = 0; warm < 3; ++warm) {
    session->compute(state, forces);
    for (auto& r : state.positions) r[0] += 1e-5;
  }
  testsupport::reset_alloc_count();
  for (int step = 0; step < 20; ++step) {
    for (auto& r : state.positions) r[0] += 1e-5;
    session->compute(state, forces);
  }
  EXPECT_EQ(testsupport::alloc_count(), 0u);
}

TEST_F(NnpSessionSuite, RebuildStepsAllocateNothing) {
  // Two saved configurations more than skin/2 apart (the 10-atom box clamps
  // the skin to about 0.34 A), so every step of the alternation rebuilds.
  const md::SystemState a = initial_state();
  md::SystemState b = a;
  util::Rng rng(41);
  for (md::Vec3& r : b.positions) {
    for (double& x : r) x += rng.bernoulli(0.5) ? 0.15 : -0.15;  // |move| 0.26
  }
  hpc::ThreadPool pool(4);
  for (hpc::ThreadPool* maybe_pool : {static_cast<hpc::ThreadPool*>(nullptr), &pool}) {
    md::SessionOptions options;
    options.skin = 0.6;
    options.chunk_atoms = 4;
    options.pool = maybe_pool;
    auto session = potential_->make_md_session(options);
    std::vector<md::Vec3> forces(a.size());
    session->compute(a, forces);  // warm-up cycle
    session->compute(b, forces);
    const std::size_t rebuilds_before = session->neighbor_rebuilds();
    testsupport::reset_alloc_count();
    for (int step = 0; step < 10; ++step) {
      session->compute(step % 2 == 0 ? a : b, forces);
    }
    const std::size_t allocations = testsupport::alloc_count();
    EXPECT_EQ(allocations, 0u) << (maybe_pool ? "4-thread pool" : "no pool");
    EXPECT_EQ(session->neighbor_rebuilds() - rebuilds_before, 10u);
  }
}

TEST_F(NnpSessionSuite, RejectsWrongAtomCountAndBox) {
  auto session = potential_->make_md_session();
  md::SystemState state = initial_state();
  std::vector<md::Vec3> forces(state.size());
  session->compute(state, forces);

  util::Rng rng(9);
  md::SystemState wrong =
      md::SystemSpec::scaled_system(2).create_initial_state(100.0, rng);
  std::vector<md::Vec3> wrong_forces(wrong.size());
  EXPECT_THROW(session->compute(wrong, wrong_forces), util::ValueError);

  md::SystemState resized = state;
  resized.box_length *= 1.5;
  EXPECT_THROW(session->compute(resized, forces), util::ValueError);
}

}  // namespace
}  // namespace dpho::dp
